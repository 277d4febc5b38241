(** Simulated performance of a compiled program on a CPU target.

    Combines the instrumented execution ({!Tb_cpu.Profiler}), the pipeline
    cost model ({!Tb_cpu.Cost_model}) and the multicore scaling model into
    one call. All figure-generating benchmarks go through this module. *)

type t = {
  cycles_per_row : float;
  time_per_row_us : float;
      (** at the target's nominal clock ({!Tb_cpu.Config.us_of_cycles}) *)
  breakdown : Tb_cpu.Cost_model.breakdown;
  workload : Tb_cpu.Cost_model.workload;
}

val simulate :
  target:Tb_cpu.Config.t ->
  ?threads:int ->
  ?batch:int ->
  ?sample:int ->
  Tb_lir.Lower.t ->
  float array array ->
  t
(** [simulate ~target lowered rows]: profile on at most [sample] rows
    (default 48) drawn from [rows], scale to [batch] (default the full
    [rows] length), apply the cost model, then the multicore model for
    [threads] (default the schedule's thread count). *)

val naive_parallel_efficiency : float
(** Efficiency factor charged to Treebeard's naive static row-loop
    partitioning relative to ideal multicore scaling (§IV-C). *)

val speedup : baseline:t -> t -> float
(** [speedup ~baseline x] = baseline time / x time. *)
