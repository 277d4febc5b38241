module Cost_model = Tb_cpu.Cost_model
module Profiler = Tb_cpu.Profiler
module Mir = Tb_mir.Mir

type t = {
  cycles_per_row : float;
  time_per_row_us : float;
  breakdown : Cost_model.breakdown;
  workload : Cost_model.workload;
}

(* Treebeard's §IV-C parallelization is a naive static partition of the
   row loop; load imbalance and fork/join costs eat a slice of the ideal
   scaling (the libraries' mature OpenMP runtimes do better). *)
let naive_parallel_efficiency = 0.85

let simulate ~target ?threads ?batch ?(sample = 48) (lowered : Tb_lir.Lower.t) rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Perf.simulate: no rows";
  let batch = Option.value batch ~default:n in
  let threads =
    Option.value threads ~default:lowered.Tb_lir.Lower.mir.Mir.num_threads
  in
  let w = Profiler.profile_sample ~target ~sample ~batch lowered rows in
  let breakdown = Cost_model.estimate target w in
  let cycles = Tb_cpu.Multicore.cycles target ~threads breakdown.Cost_model.cycles in
  let cycles =
    if threads > 1 then cycles /. naive_parallel_efficiency else cycles
  in
  let cycles_per_row = cycles /. float_of_int (max 1 w.Cost_model.rows) in
  {
    cycles_per_row;
    time_per_row_us = Tb_cpu.Config.us_of_cycles target cycles_per_row;
    breakdown;
    workload = w;
  }

let speedup ~baseline t = baseline.cycles_per_row /. t.cycles_per_row
