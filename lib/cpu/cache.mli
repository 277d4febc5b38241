(** Set-associative LRU cache simulator.

    Models a single cache level (we use it for the L1D). The profiler feeds
    it the byte addresses the compiled walk touches; the hit/miss counts
    drive the memory-stall component of the cost model. *)

type t

type stats = {
  accesses : int;
  hits : int;
  misses : int;
}

val create : ?line_bytes:int -> ?ways:int -> size_bytes:int -> unit -> t
(** Defaults: 64-byte lines, 8 ways. [size_bytes] must be a multiple of
    [line_bytes * ways]. *)

val access : t -> int -> bool
(** [access t addr] touches one byte address; returns [true] on hit and
    updates LRU state. *)

val access_range : t -> int -> int -> unit
(** [access_range t addr len] touches every line overlapping
    [addr, addr+len). *)

val stats : t -> stats
val reset : t -> unit
val reset_stats : t -> unit
(** Zero the hit/miss counters but keep the cached lines — used to measure
    steady-state miss rates after a warm-up pass. *)
