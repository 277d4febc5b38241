(** A fixed CPU probe that measures how fast the machine is running.

    On a shared host the same call can take twice as long in one run as in
    the next, and swing by a third within seconds: the vCPU is
    time-shared, its clock changes, or a neighbour thrashes the shared
    cache. The probe is benchmark-owned code — a branchy walk over a
    synthetic forest of about 12 MB, the same kind of work as a
    prediction, allocating nothing — so no change to the library can
    change its cost. {!Rr} runs it in short bursts between visits and
    scales every time it measures to the nominal machine speed. *)

val call : unit -> unit
(** One probe call (about {!nominal_us} on the reference machine). *)

val burst : unit -> float
(** Run {!call} back to back for 2 ms (three calls at least) and return
    the speed factor [nominal_us / median call time]: multiply a time
    measured right after by it. *)

val nominal_us : float
(** Median duration of {!call} on the reference machine (see the
    benchmark's README). Only a unit: any constant keeps comparisons
    between runs exact. *)
