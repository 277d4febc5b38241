(** The benchmark's only clock: [bechamel.monotonic_clock]
    (CLOCK_MONOTONIC, nanoseconds). [Tb_util.Timer.now] is
    [Unix.gettimeofday] and is never used for a measurement here. *)

val now_ns : unit -> float
(** Monotonic time in nanoseconds. Exact as a float: uptimes stay far
    below 2^53 ns (104 days). *)

val since_us : float -> float
(** [since_us t0] is the time elapsed since [t0] (a {!now_ns} reading),
    in microseconds. *)

val check : unit -> (float, string) result
(** Read the clock 100 000 times back to back and return its resolution:
    the smallest non-zero step seen between consecutive reads, in
    nanoseconds. An [Error] says the clock went backwards, never moved,
    or has a resolution of 1 µs or coarser — any of which makes the
    timings untrustworthy. *)
