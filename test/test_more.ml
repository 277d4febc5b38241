(* Second-round coverage: formatting details, registry invariants,
   determinism, dead-path unreachability, multiclass training layout. *)

open Helpers
module Prng = Tb_util.Prng
module Json = Tb_util.Json
module Table = Tb_util.Table
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Shape = Tb_hir.Shape
module Lut = Tb_hir.Lut
module Itree = Tb_hir.Itree
module Tiling = Tb_hir.Tiling
module Tiled_tree = Tb_hir.Tiled_tree
module Reorder = Tb_hir.Reorder
module Schedule = Tb_hir.Schedule
module Lower = Tb_lir.Lower
module Jit = Tb_vm.Jit
module Profiler = Tb_cpu.Profiler
module Config = Tb_cpu.Config
module Cost_model = Tb_cpu.Cost_model

(* --- util --- *)

let test_json_integer_rendering () =
  check_string "integers compact" "3" (Json.to_string (Json.Num 3.0));
  check_string "negative" "-12" (Json.to_string (Json.Num (-12.0)));
  check_bool "fraction keeps precision" true
    (String.length (Json.to_string (Json.Num 0.1)) > 2)

let test_json_deep_nesting () =
  let rec nest n = if n = 0 then Json.Num 1.0 else Json.List [ nest (n - 1) ] in
  let j = nest 200 in
  check_bool "deep roundtrip" true (Json.of_string (Json.to_string j) = j)

let test_table_alignment () =
  let t = Table.create ~aligns:[ Table.Right; Table.Left ] [ "n"; "name" ] in
  Table.add_row t [ "1"; "x" ];
  let s = Table.render t in
  check_bool "renders" true (String.length s > 0)

let test_cell_formatting () =
  check_string "cell_f" "1.50" (Table.cell_f 1.5);
  check_string "cell_fx dec" "2.0x" (Table.cell_fx ~dec:1 2.0)

(* --- shapes / LUT --- *)

let test_shapes_distinct () =
  let shapes = Shape.enumerate ~max_size:5 in
  let n = List.length shapes in
  let uniq = List.sort_uniq compare shapes in
  check_int "no duplicates" n (List.length uniq)

let test_shape_depth () =
  let chain =
    Shape.Node (Some (Shape.Node (Some (Shape.Node (None, None)), None)), None)
  in
  check_int "chain depth" 3 (Shape.depth chain);
  check_int "singleton depth" 1 (Shape.depth (Shape.Node (None, None)))

let test_lut_memory_accounting () =
  let lut = Lut.create ~tile_size:3 in
  List.iter (fun s -> ignore (Lut.shape_id lut s)) (Shape.enumerate ~max_size:3);
  (* 1 + 2 + 5 = 8 shapes of size <= 3, 8 entries each, 2 bytes each *)
  check_int "bytes" (8 * 8 * 2) (Lut.memory_bytes lut)

let test_lut_table_snapshot_isolated () =
  let lut = Lut.create ~tile_size:2 in
  let s1 = Shape.Node (None, None) in
  ignore (Lut.shape_id lut s1);
  let snapshot = Lut.table lut in
  ignore (Lut.shape_id lut (Shape.Node (Some s1, None)));
  check_int "snapshot keeps old length" 1 (Array.length snapshot);
  check_int "registry grew" 2 (Lut.num_shapes lut)

(* --- reordering / padding --- *)

let test_reorder_deterministic () =
  let rng = Prng.create 1 in
  let mk () =
    let tree = Tree.random ~max_depth:6 rng in
    let it = Itree.of_tree tree in
    let lut = Lut.create ~tile_size:2 in
    Tiled_tree.create lut it (Tiling.basic it ~tile_size:2)
  in
  let trees = Array.init 15 (fun _ -> mk ()) in
  let a = Reorder.reorder trees and b = Reorder.reorder trees in
  check_bool "same grouping" true
    (List.for_all2
       (fun (g1 : Reorder.group) g2 -> g1.Reorder.positions = g2.Reorder.positions)
       a b)

let test_padding_dead_leaves_unreachable () =
  (* Pad a tree whose real leaves are all strictly positive; the dead
     padding leaves are 0.0 and must never be returned. *)
  let rng = Prng.create 2 in
  for _ = 1 to 20 do
    let tree =
      Tree.fold
        ~leaf:(fun v -> Tree.Leaf (Float.abs v +. 1.0))
        ~node:(fun f t l r -> Tree.Node { feature = f; threshold = t; left = l; right = r })
        (Tree.random ~max_depth:7 ~num_features:4 rng)
    in
    let it = Itree.of_tree tree in
    let lut = Lut.create ~tile_size:2 in
    let padded = Tiled_tree.create ~pad_limit:max_int lut it (Tiling.basic it ~tile_size:2) in
    for _ = 1 to 50 do
      let row = random_row rng 4 in
      check_bool "dead leaf never reached" true (Tiled_tree.walk padded row >= 1.0)
    done
  done

let test_structure_key_isomorphism () =
  (* Same shapes, different thresholds -> same key; different topology ->
     different key. *)
  let build threshold =
    let tree =
      Tree.Node
        { feature = 0; threshold; left = Tree.Leaf 1.0; right = Tree.Leaf 2.0 }
    in
    let it = Itree.of_tree tree in
    let lut = Lut.create ~tile_size:2 in
    Tiled_tree.create lut it (Tiling.basic it ~tile_size:2)
  in
  check_string "isomorphic equal keys"
    (Tiled_tree.structure_key (build 0.25))
    (Tiled_tree.structure_key (build 0.75))

(* --- training --- *)

let test_multiclass_unbalanced_base_scores () =
  (* Heavily unbalanced class priors force per-class constant trees. *)
  let rng = Prng.create 3 in
  let n = 300 in
  let feats = Array.init n (fun _ -> [| Prng.uniform rng; Prng.uniform rng |]) in
  let labels =
    Array.init n (fun i -> if i mod 10 = 0 then 2.0 else if i mod 3 = 0 then 1.0 else 0.0)
  in
  let ds = Tb_data.Dataset.make ~name:"unbalanced" ~task:(Forest.Multiclass 3) feats labels in
  let params = { Tb_gbt.Train.default_params with num_rounds = 5; max_depth = 3 } in
  let f = Tb_gbt.Train.fit ~params ds in
  check_int "tree count multiple of classes" 0 (Array.length f.Forest.trees mod 3);
  (* The majority class must dominate on average margins. *)
  let counts = Array.make 3 0 in
  Array.iter
    (fun row ->
      let c = Forest.predict_class f row in
      counts.(c) <- counts.(c) + 1)
    feats;
  check_bool "majority class most predicted" true
    (counts.(0) >= counts.(1) && counts.(0) >= counts.(2))

let test_training_uses_subsample_determinism () =
  let ds = Tb_data.Generators.higgs ~rows:300 (Prng.create 4) in
  let params =
    { Tb_gbt.Train.default_params with num_rounds = 4; subsample = 0.5; seed = 9 }
  in
  let a = Tb_gbt.Train.fit ~params ds and b = Tb_gbt.Train.fit ~params ds in
  Array.iter2 (fun x y -> check_bool "deterministic subsampling" true (Tree.equal x y))
    a.Forest.trees b.Forest.trees;
  let c = Tb_gbt.Train.fit ~params:{ params with seed = 10 } ds in
  check_bool "seed changes model" false
    (Array.for_all2 Tree.equal a.Forest.trees c.Forest.trees)

(* --- profiler / loop order --- *)

let test_profiler_loop_orders_same_steps () =
  let rng = Prng.create 5 in
  let forest = Forest.random ~num_trees:12 ~max_depth:6 ~num_features:5 rng in
  let rows = random_rows rng 5 32 in
  let steps order =
    let lp = Lower.lower forest { Schedule.scalar_baseline with loop_order = order } in
    let w = Profiler.profile ~target:Config.intel_rocket_lake lp rows in
    w.Cost_model.steps_checked + w.Cost_model.steps_unchecked
  in
  check_int "loop order preserves work"
    (steps Schedule.One_tree_at_a_time)
    (steps Schedule.One_row_at_a_time)

let test_profiler_multiclass_walks_all_trees () =
  let rng = Prng.create 6 in
  let trees = Array.init 9 (fun _ -> Tree.random ~max_depth:4 ~num_features:4 rng) in
  let forest = Forest.make ~task:(Forest.Multiclass 3) ~num_features:4 trees in
  let lp = Lower.lower forest Schedule.default in
  let rows = random_rows rng 4 10 in
  let w = Profiler.profile ~target:Config.intel_rocket_lake lp rows in
  check_int "walks = trees x rows" (9 * 10)
    (w.Cost_model.walks_checked + w.Cost_model.walks_unrolled)

let test_code_bytes_grow_with_unrolled_groups () =
  let rng = Prng.create 7 in
  let forest = Forest.random ~num_trees:12 ~max_depth:7 ~num_features:5 rng in
  let rows = random_rows rng 5 8 in
  let code schedule =
    let lp = Lower.lower forest schedule in
    (Profiler.profile ~target:Config.intel_rocket_lake lp rows).Cost_model.code_bytes
  in
  check_bool "unrolled code bigger" true
    (code Schedule.default
    > code { Schedule.default with pad_and_unroll = false; peel = false })

(* --- baselines extras --- *)

let test_hummingbird_macs_manual_count () =
  (* One depth-2 tree: 3 internal nodes, 4 leaves -> N + N*L + L = 19. *)
  let tree =
    Tree.Node
      {
        feature = 0; threshold = 0.0;
        left = Tree.Node { feature = 1; threshold = 0.0; left = Tree.Leaf 1.0; right = Tree.Leaf 2.0 };
        right = Tree.Node { feature = 1; threshold = 1.0; left = Tree.Leaf 3.0; right = Tree.Leaf 4.0 };
      }
  in
  let forest = Forest.make ~task:Forest.Regression ~num_features:2 [| tree |] in
  let hb = Tb_baselines.Hummingbird.compile forest in
  check_bool "macs" true
    (Float.abs (Tb_baselines.Hummingbird.macs_per_row hb -. 19.0) < 1e-9)

let test_treelite_closure_constants () =
  (* Recompiling after mutating nothing: closures capture values, so a
     serialized-roundtrip forest compiles to identical behaviour. *)
  let rng = Prng.create 8 in
  let forest = Forest.random ~num_trees:5 ~num_features:4 rng in
  let forest' = Tb_model.Serialize.of_string (Tb_model.Serialize.to_string forest) in
  let rows = random_rows rng 4 16 in
  let a = Tb_baselines.Treelite.predict_batch (Tb_baselines.Treelite.compile forest) rows in
  let b = Tb_baselines.Treelite.predict_batch (Tb_baselines.Treelite.compile forest') rows in
  check_bool "identical" true
    (Array.for_all2 (fun x y -> Array.for_all2 Float.equal x y) a b)

(* --- end-to-end on a real (small) trained model --- *)

let test_end_to_end_trained_model () =
  let rng = Prng.create 9 in
  let ds = Tb_data.Generators.covtype ~rows:400 rng in
  let train, test = Tb_data.Dataset.split ds ~train_fraction:0.8 rng in
  let params =
    { Tb_gbt.Train.default_params with num_rounds = 25; max_depth = 6; min_child_weight = 0.1 }
  in
  let forest = Tb_gbt.Train.fit ~params train in
  let profiles =
    Tb_model.Model_stats.profile_forest forest train.Tb_data.Dataset.features
  in
  let rows = test.Tb_data.Dataset.features in
  let expected = Forest.predict_batch_raw forest rows in
  List.iter
    (fun schedule ->
      let compiled =
        Tb_core.Treebeard.make ~plan:(`Schedule schedule) ~profiles
          (`Forest forest)
      in
      let out = Tb_core.Treebeard.predict_forest compiled rows in
      check_bool
        ("trained model: " ^ Schedule.to_string schedule)
        true
        (Array.for_all2 arrays_close out expected))
    [
      Schedule.scalar_baseline;
      Schedule.default;
      { Schedule.default with tiling = Schedule.Probability_based };
      Schedule.with_threads Schedule.default 3;
    ]

let suite =
  [
    quick "json integer rendering" test_json_integer_rendering;
    quick "json deep nesting" test_json_deep_nesting;
    quick "table alignment option" test_table_alignment;
    quick "table cell formatting" test_cell_formatting;
    quick "shapes enumerate distinct" test_shapes_distinct;
    quick "shape depth" test_shape_depth;
    quick "lut memory accounting" test_lut_memory_accounting;
    quick "lut table snapshot isolated" test_lut_table_snapshot_isolated;
    quick "reorder deterministic" test_reorder_deterministic;
    quick "padding dead leaves unreachable" test_padding_dead_leaves_unreachable;
    quick "structure key isomorphism" test_structure_key_isomorphism;
    quick "multiclass unbalanced base scores" test_multiclass_unbalanced_base_scores;
    quick "training subsample determinism" test_training_uses_subsample_determinism;
    quick "profiler loop orders same steps" test_profiler_loop_orders_same_steps;
    quick "profiler multiclass walks all trees" test_profiler_multiclass_walks_all_trees;
    quick "code bytes grow with unrolling" test_code_bytes_grow_with_unrolled_groups;
    quick "hummingbird macs manual count" test_hummingbird_macs_manual_count;
    quick "treelite closure constants" test_treelite_closure_constants;
    quick "end-to-end trained model" test_end_to_end_trained_model;
  ]
