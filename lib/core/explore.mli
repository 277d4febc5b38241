(** Schedule exploration (the Table II search).

    Treebeard's performance comes from choosing the right combination of
    optimizations per (model, CPU) pair. Two search strategies:

    - {!greedy}: staged coordinate descent over loop order, tile size,
      tiling kind, padding/unrolling, interleave factor and layout
      (~20 candidate evaluations — what the benchmarks use by default);
    - {!exhaustive}: every schedule of {!Tb_hir.Schedule.table2_grid}
      (hundreds of evaluations — what the paper's offline exploration
      does).

    Candidates are scored by {!Perf.simulate} on a row sample. *)

type result = {
  schedule : Tb_hir.Schedule.t;
  perf : Perf.t;
  evaluated : int;  (** number of candidate schedules simulated *)
}

val greedy :
  target:Tb_cpu.Config.t ->
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  ?sample:int ->
  ?threads:int ->
  Tb_model.Forest.t ->
  float array array ->
  result

val exhaustive :
  target:Tb_cpu.Config.t ->
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  ?sample:int ->
  ?threads:int ->
  ?grid:Tb_hir.Schedule.t list ->
  Tb_model.Forest.t ->
  float array array ->
  result

val evaluate :
  target:Tb_cpu.Config.t ->
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  ?sample:int ->
  ?threads:int ->
  Tb_model.Forest.t ->
  Tb_hir.Schedule.t ->
  float array array ->
  Perf.t
(** Score one schedule (compile + simulate). *)
