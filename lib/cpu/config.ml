module Ops = Tb_lir.Ops

type t = {
  name : string;
  issue_width : float;
  branch_miss_penalty : float;
  predicate_mispredict_rate : float;
  l1_size_bytes : int;
  l1_ways : int;
  l1_line_bytes : int;
  l1_miss_penalty : float;
  memory_overlap : float;
  icache_bytes : int;
  frontend_miss_penalty : float;
  cores : int;
  smt_threads : int;
  smt_yield : float;
  parallel_overhead : float;
  gather_latency : float;
  gather_uops : float;
  ooo_walk_overlap : float;
  loop_exit_mispredict_rate : float;
  l2_size_bytes : int;
  l2_spill_penalty : float;
  nominal_mhz : float;
}

let us_of_cycles t cycles = cycles /. t.nominal_mhz

let op_latency t (op : Ops.op) =
  match op with
  | Ops.Vload_thresholds | Ops.Vload_features -> 5.0
  | Ops.Gather_row -> t.gather_latency
  | Ops.Vcompare -> 3.0
  | Ops.Pack_mask -> 3.0
  | Ops.Load_shape_id | Ops.Load_child_ptr -> 4.0
  | Ops.Lut_lookup -> 4.0
  | Ops.Addr_arith -> 1.0
  | Ops.Leaf_check_branch | Ops.Loop_back_branch -> 1.0
  | Ops.Scalar_load_leaf -> 4.0
  | Ops.Accumulate -> 3.0
  | Ops.Scalar_load_threshold | Ops.Scalar_load_feature -> 4.0
  | Ops.Scalar_compare_branch -> 1.0

let op_uops t (op : Ops.op) =
  match op with
  | Ops.Gather_row -> t.gather_uops
  | Ops.Vload_thresholds | Ops.Vload_features -> 1.0
  | Ops.Vcompare | Ops.Pack_mask -> 1.0
  | Ops.Load_shape_id | Ops.Load_child_ptr | Ops.Lut_lookup -> 1.0
  | Ops.Addr_arith -> 1.0
  | Ops.Leaf_check_branch | Ops.Loop_back_branch -> 1.0
  | Ops.Scalar_load_leaf | Ops.Accumulate -> 1.0
  | Ops.Scalar_load_threshold | Ops.Scalar_load_feature -> 1.0
  | Ops.Scalar_compare_branch -> 1.0

let intel_rocket_lake =
  {
    name = "intel-rocket-lake";
    issue_width = 5.0;
    branch_miss_penalty = 17.0;
    predicate_mispredict_rate = 0.12;
    l1_size_bytes = 48 * 1024;
    l1_ways = 12;
    l1_line_bytes = 64;
    l1_miss_penalty = 14.0;
    memory_overlap = 0.65;
    icache_bytes = 32 * 1024;
    frontend_miss_penalty = 1.2;
    cores = 8;
    smt_threads = 2;
    smt_yield = 0.25;
    parallel_overhead = 0.03;
    (* AVX2 vpgatherdd on Rocket Lake is fast. *)
    gather_latency = 14.0;
    gather_uops = 8.0;
    ooo_walk_overlap = 4.0;
    loop_exit_mispredict_rate = 0.5;
    l2_size_bytes = 512 * 1024;
    l2_spill_penalty = 1.5;
    nominal_mhz = 3500.0;
  }

let amd_ryzen7 =
  {
    name = "amd-ryzen7";
    issue_width = 5.0;
    branch_miss_penalty = 19.0;
    predicate_mispredict_rate = 0.12;
    l1_size_bytes = 32 * 1024;
    l1_ways = 8;
    l1_line_bytes = 64;
    l1_miss_penalty = 15.0;
    memory_overlap = 0.65;
    icache_bytes = 32 * 1024;
    frontend_miss_penalty = 1.2;
    cores = 8;
    smt_threads = 2;
    smt_yield = 0.22;
    parallel_overhead = 0.03;
    (* Zen 2 gathers are microcoded: long latency, many µops — the reason
       the paper finds smaller tiles optimal on AMD. *)
    gather_latency = 22.0;
    gather_uops = 12.0;
    ooo_walk_overlap = 4.0;
    loop_exit_mispredict_rate = 0.5;
    l2_size_bytes = 512 * 1024;
    l2_spill_penalty = 1.5;
    nominal_mhz = 3500.0;
  }

let targets = [ intel_rocket_lake; amd_ryzen7 ]

let by_name name =
  match List.find_opt (fun t -> t.name = name) targets with
  | Some t -> t
  | None -> raise Not_found
