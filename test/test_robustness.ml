(* Edge cases, failure injection and cross-backend consistency properties
   that don't fit the per-module suites. *)

open Helpers
module Prng = Tb_util.Prng
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule
module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Jit = Tb_vm.Jit
module Profiler = Tb_cpu.Profiler
module Config = Tb_cpu.Config
module Cost_model = Tb_cpu.Cost_model
module Cache = Tb_cpu.Cache

let schedules_under_test =
  [
    Schedule.scalar_baseline;
    Schedule.default;
    { Schedule.default with layout = Schedule.Array_layout };
    { Schedule.default with loop_order = Schedule.One_row_at_a_time };
    { Schedule.default with tile_size = 3; interleave = 2; pad_and_unroll = false };
  ]

(* Padding inserts dummy tiles whose predicate is [x < +inf]; like the
   paper's padding, that assumes finite feature values (IEEE makes the
   predicate false for NaN and +inf, diverting the walk). Non-finite
   inputs are therefore only guaranteed consistent on unpadded
   schedules. *)
let schedules_without_padding =
  List.map
    (fun s -> { s with Schedule.pad_and_unroll = false })
    schedules_under_test

(* NaN / infinity semantics: the node predicate is [x < threshold]; IEEE
   makes that false for NaN, so NaN rows must deterministically take right
   branches in EVERY backend, scalar or vectorized. *)
let test_nan_rows_consistent () =
  let rng = Prng.create 1 in
  let forest = Forest.random ~num_trees:8 ~max_depth:6 ~num_features:4 rng in
  let rows =
    [|
      [| Float.nan; 0.0; 0.0; 0.0 |];
      [| Float.nan; Float.nan; Float.nan; Float.nan |];
      [| 0.1; Float.nan; -0.4; 0.2 |];
    |]
  in
  let expected = Forest.predict_batch_raw forest rows in
  List.iter
    (fun schedule ->
      let out = jit (Lower.lower forest schedule) rows in
      check_bool
        ("nan consistent: " ^ Schedule.to_string schedule)
        true
        (Array.for_all2 arrays_close out expected))
    schedules_without_padding

let test_infinite_features_consistent () =
  let rng = Prng.create 2 in
  let forest = Forest.random ~num_trees:8 ~max_depth:6 ~num_features:4 rng in
  let rows =
    [|
      [| Float.infinity; 0.0; Float.neg_infinity; 0.0 |];
      [| Float.neg_infinity; Float.neg_infinity; 0.0; Float.infinity |];
    |]
  in
  let expected = Forest.predict_batch_raw forest rows in
  List.iter
    (fun schedule ->
      let out = jit (Lower.lower forest schedule) rows in
      check_bool "inf consistent" true (Array.for_all2 arrays_close out expected))
    schedules_without_padding

(* The two loop orders accumulate tree contributions for a given row in the
   same (reordered) tree sequence, so they must agree bit-for-bit, not just
   within tolerance. *)
let test_loop_orders_bitwise_equal () =
  let rng = Prng.create 3 in
  let forest = Forest.random ~num_trees:15 ~max_depth:7 ~num_features:6 rng in
  let rows = random_rows rng 6 64 in
  let out_of order =
    jit (Lower.lower forest { Schedule.default with loop_order = order }) rows
  in
  let a = out_of Schedule.One_tree_at_a_time in
  let b = out_of Schedule.One_row_at_a_time in
  check_bool "bitwise equal" true
    (Array.for_all2 (fun x y -> Array.for_all2 Float.equal x y) a b)

let test_interleave_bitwise_equal () =
  let rng = Prng.create 4 in
  let forest = Forest.random ~num_trees:15 ~max_depth:7 ~num_features:6 rng in
  let rows = random_rows rng 6 67 in
  let out_of il =
    jit (Lower.lower forest { Schedule.default with interleave = il }) rows
  in
  let a = out_of 1 and b = out_of 8 in
  check_bool "bitwise equal" true
    (Array.for_all2 (fun x y -> Array.for_all2 Float.equal x y) a b)

let test_layouts_bitwise_equal () =
  let rng = Prng.create 5 in
  let forest = Forest.random ~num_trees:15 ~max_depth:7 ~num_features:6 rng in
  let rows = random_rows rng 6 32 in
  let out_of layout =
    jit (Lower.lower forest { Schedule.default with layout }) rows
  in
  let a = out_of Schedule.Array_layout and b = out_of Schedule.Sparse_layout in
  check_bool "bitwise equal" true
    (Array.for_all2 (fun x y -> Array.for_all2 Float.equal x y) a b)

(* Degenerate models. *)

let test_single_node_trees () =
  (* Depth-1 trees: every tile is under-full at tile size 8. *)
  let rng = Prng.create 6 in
  let trees =
    Array.init 10 (fun _ ->
        Tree.Node
          {
            feature = Prng.int rng 3;
            threshold = Prng.float rng 1.0;
            left = Tree.Leaf (Prng.uniform rng);
            right = Tree.Leaf (Prng.uniform rng);
          })
  in
  let forest = Forest.make ~task:Forest.Regression ~num_features:3 trees in
  let rows = random_rows rng 3 16 in
  let expected = Forest.predict_batch_raw forest rows in
  List.iter
    (fun schedule ->
      let out = jit (Lower.lower forest schedule) rows in
      check_bool "depth-1 forest" true (Array.for_all2 arrays_close out expected))
    schedules_under_test

let test_pure_chain_trees () =
  (* Maximally imbalanced trees exercise under-full tiles and deep sparse
     chains. *)
  let rec chain n =
    if n = 0 then Tree.Leaf 1.0
    else
      Tree.Node
        {
          feature = n mod 4;
          threshold = 0.0;
          left = Tree.Leaf (float_of_int n);
          right = chain (n - 1);
        }
  in
  let forest =
    Forest.make ~task:Forest.Regression ~num_features:4 [| chain 12; chain 9 |]
  in
  let rng = Prng.create 7 in
  let rows = random_rows rng 4 32 in
  let expected = Forest.predict_batch_raw forest rows in
  List.iter
    (fun schedule ->
      let out = jit (Lower.lower forest schedule) rows in
      check_bool "chain forest" true (Array.for_all2 arrays_close out expected))
    (* Array layout would blow up on deep tilings of chains; sparse-only
       schedules here. *)
    [
      Schedule.scalar_baseline;
      { Schedule.default with layout = Schedule.Sparse_layout };
      { Schedule.default with tile_size = 2; layout = Schedule.Sparse_layout };
    ]

let test_duplicate_feature_in_tile () =
  (* A tile whose lanes test the same feature with different thresholds —
     the gather reads one address twice; semantics must hold. *)
  let tree =
    Tree.Node
      {
        feature = 0;
        threshold = 0.5;
        left =
          Tree.Node
            { feature = 0; threshold = -0.5; left = Tree.Leaf 1.0; right = Tree.Leaf 2.0 };
        right =
          Tree.Node
            { feature = 0; threshold = 1.5; left = Tree.Leaf 3.0; right = Tree.Leaf 4.0 };
      }
  in
  let forest = Forest.make ~task:Forest.Regression ~num_features:1 [| tree |] in
  let check_at x expected =
    List.iter
      (fun schedule ->
        let out = jit (Lower.lower forest schedule) [| [| x |] |] in
        check_float (Printf.sprintf "x=%g" x) expected out.(0).(0))
      schedules_under_test
  in
  check_at (-1.0) 1.0;
  check_at 0.0 2.0;
  check_at 1.0 3.0;
  check_at 2.0 4.0

(* Profiler invariants. *)

let test_profiler_step_bounds () =
  let rng = Prng.create 8 in
  let forest = Forest.random ~num_trees:10 ~max_depth:7 ~num_features:6 rng in
  let lp = Lower.lower forest Schedule.default in
  let rows = random_rows rng 6 24 in
  let w = Profiler.profile ~target:Config.intel_rocket_lake lp rows in
  let steps = w.Cost_model.steps_checked + w.Cost_model.steps_unchecked in
  let max_depth_sum =
    Array.fold_left ( + ) 0 lp.Lower.walk_depth * Array.length rows
  in
  check_bool "steps bounded by depth sum" true (steps <= max_depth_sum);
  check_bool "critical <= steps" true (w.Cost_model.critical_steps <= steps);
  check_bool "at least one access per step" true
    (w.Cost_model.l1.Cache.accesses >= steps)

let test_profiler_row_count_scaling () =
  let rng = Prng.create 9 in
  let forest = Forest.random ~num_trees:10 ~max_depth:6 ~num_features:6 rng in
  let lp = Lower.lower forest Schedule.scalar_baseline in
  let rows = random_rows rng 6 64 in
  let w32 = Profiler.profile ~target:Config.intel_rocket_lake lp (Array.sub rows 0 32) in
  let w64 = Profiler.profile ~target:Config.intel_rocket_lake lp rows in
  check_int "walks double" (2 * w32.Cost_model.walks_checked) w64.Cost_model.walks_checked

(* Cost-model monotonicity. *)

let base_workload =
  {
    Cost_model.rows = 100;
    walks_checked = 1000;
    walks_unrolled = 0;
    steps_checked = 5000;
    steps_unchecked = 0;
    leaf_fetches = 1000;
    critical_steps = 5000;
    l1 = { Cache.accesses = 20000; hits = 18000; misses = 2000 };
    code_bytes = 4096;
    model_bytes = 100_000;
    tile_size = 4;
    layout = Layout.Sparse_kind;
  }

let test_cost_monotone_in_misses () =
  let cfg = Config.intel_rocket_lake in
  let cycles w = (Cost_model.estimate cfg w).Cost_model.cycles in
  let more_misses =
    { base_workload with Cost_model.l1 = { Cache.accesses = 20000; hits = 10000; misses = 10000 } }
  in
  check_bool "misses cost" true (cycles more_misses > cycles base_workload)

let test_cost_monotone_in_steps () =
  let cfg = Config.intel_rocket_lake in
  let cycles w = (Cost_model.estimate cfg w).Cost_model.cycles in
  let more_steps =
    { base_workload with Cost_model.steps_checked = 10000; critical_steps = 10000 }
  in
  check_bool "steps cost" true (cycles more_steps > cycles base_workload)

let test_cost_l2_spill_penalty () =
  let cfg = Config.intel_rocket_lake in
  let cycles w = (Cost_model.estimate cfg w).Cost_model.cycles in
  let spilled = { base_workload with Cost_model.model_bytes = 100_000_000 } in
  check_bool "spill penalized" true (cycles spilled > cycles base_workload)

let test_cost_breakdown_sums () =
  let cfg = Config.intel_rocket_lake in
  let b = Cost_model.estimate cfg base_workload in
  let total =
    Float.max b.Cost_model.retiring (b.Cost_model.retiring +. b.Cost_model.backend_core)
    +. b.Cost_model.backend_memory +. b.Cost_model.bad_speculation +. b.Cost_model.frontend
  in
  check_bool "components consistent with total" true
    (Float.abs (total -. b.Cost_model.cycles) /. b.Cost_model.cycles < 0.01)

let test_multicore_never_slower () =
  let cfg = Config.amd_ryzen7 in
  let prev = ref Float.infinity in
  List.iter
    (fun threads ->
      let c = Tb_cpu.Multicore.cycles cfg ~threads 1e9 in
      check_bool "monotone in threads" true (c <= !prev +. 1.0);
      prev := c)
    [ 1; 2; 4; 8; 16 ]

(* Schedule-space sweep on one fixed forest: every Table II schedule
   compiles and is exact (the full 256-point grid). *)
let test_full_table2_grid_equivalence () =
  let rng = Prng.create 10 in
  let forest = Forest.random ~num_trees:6 ~max_depth:6 ~num_features:5 rng in
  let rows = random_rows rng 5 8 in
  let profiles = Tb_model.Model_stats.profile_forest forest rows in
  let expected = Forest.predict_batch_raw forest rows in
  List.iter
    (fun schedule ->
      match Lower.lower ~profiles forest schedule with
      | exception Invalid_argument _ -> () (* array-slab cap on deep tilings *)
      | lp ->
        let out = jit lp rows in
        check_bool (Schedule.to_string schedule) true
          (Array.for_all2 arrays_close out expected))
    Schedule.table2_grid

let suite =
  [
    quick "NaN rows consistent across backends" test_nan_rows_consistent;
    quick "infinite features consistent" test_infinite_features_consistent;
    quick "loop orders bitwise equal" test_loop_orders_bitwise_equal;
    quick "interleave bitwise equal" test_interleave_bitwise_equal;
    quick "layouts bitwise equal" test_layouts_bitwise_equal;
    quick "depth-1 forests" test_single_node_trees;
    quick "chain forests" test_pure_chain_trees;
    quick "duplicate feature in tile" test_duplicate_feature_in_tile;
    quick "profiler step bounds" test_profiler_step_bounds;
    quick "profiler row-count scaling" test_profiler_row_count_scaling;
    quick "cost monotone in misses" test_cost_monotone_in_misses;
    quick "cost monotone in steps" test_cost_monotone_in_steps;
    quick "L2 spill penalized" test_cost_l2_spill_penalty;
    quick "breakdown sums to cycles" test_cost_breakdown_sums;
    quick "multicore never slower" test_multicore_never_slower;
    quick "full Table II grid equivalence" test_full_table2_grid_equivalence;
  ]
