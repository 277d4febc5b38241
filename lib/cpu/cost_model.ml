module Ops = Tb_lir.Ops
module Layout = Tb_lir.Layout

type workload = {
  rows : int;
  walks_checked : int;
  walks_unrolled : int;
  steps_checked : int;
  steps_unchecked : int;
  leaf_fetches : int;
  critical_steps : int;
  l1 : Cache.stats;
  code_bytes : int;
  model_bytes : int;
  tile_size : int;
  layout : Layout.kind;
}

type breakdown = {
  cycles : float;
  instructions : float;
  retiring : float;
  frontend : float;
  bad_speculation : float;
  backend_memory : float;
  backend_core : float;
}

let sum_uops config ops =
  List.fold_left (fun acc op -> acc +. Config.op_uops config op) 0.0 ops

let sum_latency config ops =
  List.fold_left (fun acc op -> acc +. Config.op_latency config op) 0.0 ops

let estimate (config : Config.t) w =
  let layout = w.layout and tile_size = w.tile_size in
  let checked_ops = Ops.step_ops ~layout ~tile_size (Tile_step { leaf_check = true }) in
  let unchecked_ops = Ops.step_ops ~layout ~tile_size (Tile_step { leaf_check = false }) in
  let leaf_ops = Ops.step_ops ~layout ~tile_size Leaf_fetch in
  let count_insts ops = float_of_int (List.length ops) in
  let instructions =
    (float_of_int w.steps_checked *. count_insts checked_ops)
    +. (float_of_int w.steps_unchecked *. count_insts unchecked_ops)
    +. (float_of_int w.leaf_fetches *. count_insts leaf_ops)
  in
  let uops =
    (float_of_int w.steps_checked *. sum_uops config checked_ops)
    +. (float_of_int w.steps_unchecked *. sum_uops config unchecked_ops)
    +. (float_of_int w.leaf_fetches *. sum_uops config leaf_ops)
  in
  let retiring = uops /. config.Config.issue_width in
  (* Serial dependency chain: one chain traversal per critical step. *)
  let chain_latency =
    sum_latency config (Ops.dependency_chain ~layout ~tile_size (Tile_step { leaf_check = true }))
  in
  (* The OOO window overlaps a couple of adjacent independent walks even
     without explicit interleaving. *)
  let chain_cycles =
    float_of_int w.critical_steps *. chain_latency /. config.Config.ooo_walk_overlap
  in
  let backend_core = Float.max 0.0 (chain_cycles -. retiring) in
  let miss_penalty =
    (* Working sets past L2 (e.g. the bloated array layout on big models)
       pay L3/TLB latency on their misses. *)
    if w.model_bytes > config.Config.l2_size_bytes then
      config.Config.l1_miss_penalty *. config.Config.l2_spill_penalty
    else config.Config.l1_miss_penalty
  in
  let backend_memory =
    float_of_int w.l1.Cache.misses
    *. miss_penalty
    *. (1.0 -. config.Config.memory_overlap)
  in
  let predicate_branches =
    (* Scalar walks branch on every node predicate; vector walks replace
       predicates with the LUT and keep only the loop-termination check. *)
    if tile_size = 1 then float_of_int (w.steps_checked + w.steps_unchecked) else 0.0
  in
  let bad_speculation =
    ((predicate_branches *. config.Config.predicate_mispredict_rate)
    +. (float_of_int w.walks_checked *. config.Config.loop_exit_mispredict_rate))
    *. config.Config.branch_miss_penalty
  in
  let frontend =
    if w.code_bytes <= config.Config.icache_bytes then 0.0
    else begin
      let excess =
        float_of_int (w.code_bytes - config.Config.icache_bytes)
        /. float_of_int config.Config.icache_bytes
      in
      instructions *. config.Config.frontend_miss_penalty *. Float.min 1.0 (excess /. 4.0)
    end
  in
  let cycles =
    Float.max retiring chain_cycles +. backend_memory +. bad_speculation +. frontend
  in
  {
    cycles;
    instructions;
    retiring;
    frontend;
    bad_speculation;
    backend_memory;
    backend_core;
  }

let cycles_per_row b w =
  if w.rows = 0 then 0.0 else b.cycles /. float_of_int w.rows
