(** In-memory span recorder for the traced runs.

    Spans are opened and closed by the benchmark's own code around each
    call into a public library function; nothing inside [lib/] is
    instrumented. A span carries its name, layer ([cat]), start, end,
    parent span and an argument (the cell or batch id). Spans stay in
    memory and are exported at the end as Chrome trace-event JSON, which
    Perfetto opens.

    Aggregates — total duration per span name and self time per layer —
    are updated as each span closes, so they stay exact when the stored
    span buffer is full. Record from one domain at a time: the recorder
    is not synchronized. With recording off, {!with_} costs one branch. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  cat : string;  (** the layer, e.g. ["vm"], ["lir"], ["serve"] *)
  arg : string;  (** cell or batch id *)
  tid : int;  (** recording domain *)
  start_ns : float;
  end_ns : float;
}

val capacity : int
(** At most this many spans (50 000) are stored for export; later ones
    only feed the aggregates. *)

val reset : unit -> unit
(** Forget everything recorded, keep recording off. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_ : ?arg:string -> cat:string -> string -> (unit -> 'a) -> 'a
(** [with_ ~cat name f] runs [f] inside a span when recording is on. *)

val spans : unit -> span array
(** Stored spans, by id. *)

val closed : unit -> int
(** Spans closed since {!reset}, stored or not. *)

val totals_us : unit -> (string * float) list
(** Per span name, the summed duration of every closed span with that
    name, in microseconds. *)

val self_us_by_layer : unit -> (string * float) list
(** Per layer ([cat]), the summed self time of its spans — each span's
    duration minus the part its child spans cover — in microseconds,
    sorted by layer name. *)

val well_nested : span array -> bool
(** Per recording domain: every child lies inside its parent, and spans
    sharing a parent (roots included) do not overlap. *)

val to_chrome : ?extra:Tb_util.Json.t list -> span array -> Tb_util.Json.t
(** Chrome trace-event JSON: complete (["ph":"X"]) events, timestamps in
    microseconds from the earliest span. [extra] events are appended as
    given. *)
