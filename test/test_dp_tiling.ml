(* DP tiling extensions: optimal probability-based tiling (the paper's
   "can be solved optimally using dynamic programming") and the
   min-max-depth variant (suggested as future work in §III-B2). *)

open Helpers
module Prng = Tb_util.Prng
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Itree = Tb_hir.Itree
module Tiling = Tb_hir.Tiling
module Lut = Tb_hir.Lut
module Tiled_tree = Tb_hir.Tiled_tree
module Schedule = Tb_hir.Schedule

let random_leaf_probs rng n =
  let raw = Array.init n (fun _ -> Tb_util.Prng.uniform rng ** 3.0) in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun x -> x /. total) raw

(* Exact expected tiled depth under leaf probabilities: tiled leaves in
   left-to-right order correspond to source leaves (no padding here). *)
let expected_depth tiled leaf_probs =
  let depths = List.rev (Tiled_tree.leaf_depths tiled) in
  List.fold_left2
    (fun acc (d, _) p -> acc +. (float_of_int d *. p))
    0.0 depths (Array.to_list leaf_probs)

let setup seed =
  let rng = Prng.create seed in
  let tree = Tree.random ~max_depth:8 ~num_features:6 rng in
  let it = Itree.of_tree tree in
  let leaf_probs = random_leaf_probs rng (Tree.num_leaves tree) in
  let node_probs = Itree.node_probs it ~leaf_probs in
  let tile_size = 2 + Prng.int rng 5 in
  (rng, tree, it, leaf_probs, node_probs, tile_size)

let dp_valid_property which seed =
  let _, _, it, _, node_probs, tile_size = setup seed in
  let tiling =
    match which with
    | `Optimal -> Tiling.optimal_probability_based it ~node_probs ~tile_size
    | `Minmax -> Tiling.min_max_depth it ~tile_size
  in
  match Tb_analysis.Hir_check.check_tiling it tiling with
  | [] -> true
  | ds -> QCheck2.Test.fail_reportf "invalid DP tiling: %s" (show_diags ds)

let dp_walk_equivalence_property which seed =
  let rng, tree, it, _, node_probs, tile_size = setup seed in
  let lut = Lut.create ~tile_size in
  let tiling =
    match which with
    | `Optimal -> Tiling.optimal_probability_based it ~node_probs ~tile_size
    | `Minmax -> Tiling.min_max_depth it ~tile_size
  in
  let tiled = Tiled_tree.create lut it tiling in
  Array.for_all
    (fun row -> floats_close (Tree.predict tree row) (Tiled_tree.walk tiled row))
    (random_rows rng 6 48)
  || QCheck2.Test.fail_report "DP-tiled walk diverges"

let optimality_property seed =
  (* The DP must dominate both greedy algorithms on the exact §III-C
     objective, for every tree and probability vector. *)
  let _, _, it, leaf_probs, node_probs, tile_size = setup seed in
  let lut = Lut.create ~tile_size in
  let depth_of tiling = expected_depth (Tiled_tree.create lut it tiling) leaf_probs in
  let opt = depth_of (Tiling.optimal_probability_based it ~node_probs ~tile_size) in
  let greedy = depth_of (Tiling.probability_based it ~node_probs ~tile_size) in
  let basic = depth_of (Tiling.basic it ~tile_size) in
  (opt <= greedy +. 1e-9 && opt <= basic +. 1e-9)
  || QCheck2.Test.fail_reportf "DP not optimal: opt=%.4f greedy=%.4f basic=%.4f"
       opt greedy basic

let minmax_depth_property seed =
  (* Min-max tiling's worst-case tiled depth is no worse than either
     default algorithm's. *)
  let _, _, it, _, node_probs, tile_size = setup seed in
  let lut = Lut.create ~tile_size in
  let max_depth tiling = Tiled_tree.depth (Tiled_tree.create lut it tiling) in
  let mm = max_depth (Tiling.min_max_depth it ~tile_size) in
  let basic = max_depth (Tiling.basic it ~tile_size) in
  let greedy = max_depth (Tiling.probability_based it ~node_probs ~tile_size) in
  (mm <= basic && mm <= greedy)
  || QCheck2.Test.fail_reportf "minmax not minimal: mm=%d basic=%d greedy=%d" mm
       basic greedy

let test_optimal_beats_greedy_on_chain () =
  (* A hot path along a right chain with a distracting heavy node elsewhere:
     the greedy can be led astray; the DP cannot. Regardless of the greedy's
     outcome, the DP must reach the optimum: hot leaf at tiled depth 1. *)
  let tree =
    (* root -> right chain of 3, each with a left leaf. *)
    Tree.Node
      {
        feature = 0; threshold = 0.0;
        left = Tree.Leaf 1.0;
        right =
          Tree.Node
            {
              feature = 1; threshold = 0.0;
              left = Tree.Leaf 2.0;
              right =
                Tree.Node
                  { feature = 2; threshold = 0.0; left = Tree.Leaf 3.0; right = Tree.Leaf 4.0 };
            };
      }
  in
  let it = Itree.of_tree tree in
  (* leaves l-to-r: 1.0, 2.0, 3.0, 4.0; all mass on the deepest leaf. *)
  let node_probs = Itree.node_probs it ~leaf_probs:[| 0.0; 0.0; 0.0; 1.0 |] in
  let tile_size = 3 in
  let lut = Lut.create ~tile_size in
  let tiled =
    Tiled_tree.create lut it (Tiling.optimal_probability_based it ~node_probs ~tile_size)
  in
  check_float "hot mass at depth 1" 1.0
    (expected_depth tiled [| 0.0; 0.0; 0.0; 1.0 |])

let test_minmax_balances_chain () =
  (* A 6-node chain at tile size 2: greedy-by-level tiling yields depth 3;
     the min-max DP must also reach the optimal 3 and never exceed it. *)
  let rec chain n =
    if n = 0 then Tree.Leaf 0.0
    else
      Tree.Node
        { feature = 0; threshold = float_of_int n; left = Tree.Leaf 1.0; right = chain (n - 1) }
  in
  let it = Itree.of_tree (chain 6) in
  let tiling = Tiling.min_max_depth it ~tile_size:2 in
  let lut = Lut.create ~tile_size:2 in
  check_int "optimal max depth" 3 (Tiled_tree.depth (Tiled_tree.create lut it tiling))

let test_dp_through_full_pipeline () =
  (* End-to-end: both DP tilings compile and predict exactly. *)
  let rng = Prng.create 42 in
  let forest = Forest.random ~num_trees:8 ~max_depth:7 ~num_features:5 rng in
  let rows = random_rows rng 5 32 in
  let profiles = Tb_model.Model_stats.profile_forest forest rows in
  let expected = Forest.predict_batch_raw forest rows in
  List.iter
    (fun tiling ->
      let schedule = { Schedule.default with tiling } in
      let compiled =
        Tb_core.Treebeard.make ~plan:(`Schedule schedule) ~profiles
          (`Forest forest)
      in
      let out = Tb_core.Treebeard.predict_forest compiled rows in
      check_bool (Schedule.to_string schedule) true
        (Array.for_all2 arrays_close out expected))
    [ Schedule.Optimal_probability_based; Schedule.Min_max_depth ]

let suite =
  [
    qcheck ~count:60 ~name:"optimal DP tiling is valid" seed_gen
      (dp_valid_property `Optimal);
    qcheck ~count:60 ~name:"minmax DP tiling is valid" seed_gen
      (dp_valid_property `Minmax);
    qcheck ~count:60 ~name:"optimal DP walk == binary walk" seed_gen
      (dp_walk_equivalence_property `Optimal);
    qcheck ~count:60 ~name:"minmax DP walk == binary walk" seed_gen
      (dp_walk_equivalence_property `Minmax);
    qcheck ~count:60 ~name:"DP dominates both greedy tilings" seed_gen
      optimality_property;
    qcheck ~count:60 ~name:"minmax minimizes worst-case depth" seed_gen
      minmax_depth_property;
    quick "optimal keeps hot chain shallow" test_optimal_beats_greedy_on_chain;
    quick "minmax balances a chain" test_minmax_balances_chain;
    quick "DP tilings through full pipeline" test_dp_through_full_pipeline;
  ]
