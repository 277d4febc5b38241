open Helpers
module Prng = Tb_util.Prng
module Forest = Tb_model.Forest
module Tree = Tb_model.Tree
module Quickscorer = Tb_baselines.Quickscorer

let qs_equivalence_property seed =
  let rng = Prng.create seed in
  let forest =
    Forest.random ~num_trees:(2 + Prng.int rng 10) ~max_depth:7 ~num_features:6 rng
  in
  let rows = random_rows rng 6 32 in
  let out = Quickscorer.predict_batch (Quickscorer.compile forest) rows in
  let expected = Forest.predict_batch_raw forest rows in
  Array.for_all2 arrays_close out expected
  || QCheck2.Test.fail_report "quickscorer diverges"

let test_qs_wide_trees () =
  (* > 63 leaves forces multi-word bitvectors. *)
  let rec complete d f =
    if d = 0 then Tree.Leaf (Tb_util.Prng.uniform (Prng.create f))
    else
      Tree.Node
        {
          feature = f mod 5;
          threshold = float_of_int (f mod 7) /. 7.0;
          left = complete (d - 1) ((2 * f) + 1);
          right = complete (d - 1) ((2 * f) + 2);
        }
  in
  let forest = Forest.make ~task:Forest.Regression ~num_features:5 [| complete 7 0 |] in
  check_int "128 leaves" 128 (Tree.num_leaves forest.Forest.trees.(0));
  let rng = Prng.create 2 in
  let rows = random_rows rng 5 64 in
  let out = Quickscorer.predict_batch (Quickscorer.compile forest) rows in
  let expected = Forest.predict_batch_raw forest rows in
  check_bool "multi-word masks" true (Array.for_all2 arrays_close out expected)

let test_qs_bit62_leaves () =
  (* Leaf 62 sits in bit 62 of mask word 0 and leaf 125 in bit 62 of
     word 1, the top bit of a full 63-bit word. In a complete depth-7
     tree whose depth-d nodes split feature d at 0.5, a row reaches leaf
     i by setting feature d to bit (6 - d) of i; leaf i holds value i. *)
  let rec complete d first =
    if d = 7 then Tree.Leaf (float_of_int first)
    else
      Tree.Node
        {
          feature = d;
          threshold = 0.5;
          left = complete (d + 1) first;
          right = complete (d + 1) (first + (1 lsl (6 - d)));
        }
  in
  let forest = Forest.make ~task:Forest.Regression ~num_features:7 [| complete 0 0 |] in
  check_int "128 leaves" 128 (Tree.num_leaves forest.Forest.trees.(0));
  let row_to leaf = Array.init 7 (fun d -> float_of_int ((leaf lsr (6 - d)) land 1)) in
  let leaves = [| 62; 125; 0; 63; 127 |] in
  let out = Quickscorer.predict_batch (Quickscorer.compile forest) (Array.map row_to leaves) in
  Array.iteri
    (fun i leaf ->
      check_float (Printf.sprintf "reference reaches leaf %d" leaf) (float_of_int leaf)
        (Forest.predict_raw forest (row_to leaf)).(0);
      check_float (Printf.sprintf "quickscorer scores leaf %d" leaf) (float_of_int leaf)
        out.(i).(0))
    leaves

let test_qs_multiclass () =
  let rng = Prng.create 3 in
  let trees = Array.init 6 (fun _ -> Tree.random ~max_depth:5 ~num_features:4 rng) in
  let forest = Forest.make ~task:(Forest.Multiclass 3) ~num_features:4 trees in
  let rows = random_rows rng 4 16 in
  let out = Quickscorer.predict_batch (Quickscorer.compile forest) rows in
  check_bool "multiclass" true
    (Array.for_all2 arrays_close out (Forest.predict_batch_raw forest rows))

let test_qs_false_node_count_bounds () =
  let rng = Prng.create 4 in
  let forest = Forest.random ~num_trees:10 ~max_depth:6 ~num_features:5 rng in
  let qs = Quickscorer.compile forest in
  let rows = random_rows rng 5 32 in
  let fn = Quickscorer.false_nodes_per_row qs rows in
  check_bool "positive" true (fn > 0.0);
  check_bool "bounded by total nodes" true
    (fn <= float_of_int (Forest.total_nodes forest))

let test_qs_work_scales_with_model () =
  let rng = Prng.create 5 in
  let small = Forest.random ~num_trees:4 ~max_depth:5 ~num_features:5 rng in
  let large = Forest.random ~num_trees:60 ~max_depth:7 ~num_features:5 rng in
  let rows = random_rows rng 5 16 in
  let cost f =
    Quickscorer.cycles_per_row ~target:Tb_cpu.Config.intel_rocket_lake
      (Quickscorer.compile f) rows
  in
  check_bool "poor scaling with model size" true (cost large > 5.0 *. cost small)

let test_qs_extreme_rows () =
  (* All-false and all-true predicate extremes. *)
  let rng = Prng.create 6 in
  let forest = Forest.random ~num_trees:6 ~max_depth:5 ~num_features:4 rng in
  let qs = Quickscorer.compile forest in
  let rows = [| Array.make 4 (-1e18); Array.make 4 1e18 |] in
  let out = Quickscorer.predict_batch qs rows in
  check_bool "extremes" true
    (Array.for_all2 arrays_close out (Forest.predict_batch_raw forest rows))

let suite =
  [
    qcheck ~name:"quickscorer == reference" seed_gen qs_equivalence_property;
    quick "wide trees need multi-word masks" test_qs_wide_trees;
    quick "leaves 62 and 125: the top bit of a full mask word" test_qs_bit62_leaves;
    quick "multiclass" test_qs_multiclass;
    quick "false-node count bounds" test_qs_false_node_count_bounds;
    quick "work scales with model size" test_qs_work_scales_with_model;
    quick "extreme feature values" test_qs_extreme_rows;
  ]
