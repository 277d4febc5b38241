(** Memory use of the benchmark process. *)

val peak_rss_mb : unit -> float
(** Peak resident set size of this process (VmHWM from
    [/proc/self/status]), in MiB.
    @raise Failure where [/proc/self/status] has no VmHWM line. *)
