open Helpers
module Prng = Tb_util.Prng
module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule
module Program = Tb_hir.Program
module Layout = Tb_lir.Layout
module Ops = Tb_lir.Ops
module Lower = Tb_lir.Lower
module Mir = Tb_mir.Mir

let random_forest ?(num_trees = 10) seed =
  Forest.random ~num_trees ~max_depth:7 ~num_features:6 (Prng.create seed)

let layout_walk_equivalence_property kind seed =
  let rng = Prng.create seed in
  let forest = Forest.random ~num_trees:8 ~max_depth:7 ~num_features:6 rng in
  let tile_size = 1 + Prng.int rng 4 in
  let schedule =
    { Schedule.scalar_baseline with tile_size; pad_and_unroll = Prng.bool rng }
  in
  let p = Program.build forest schedule in
  let lay = Layout.build_kind kind p in
  let rows = random_rows rng 6 32 in
  Array.for_all
    (fun row ->
      let ok = ref true in
      for tree = 0 to Array.length forest.Forest.trees - 1 do
        let expected = Tb_hir.Tiled_tree.walk p.Program.trees.(tree).Program.tiled row in
        if not (floats_close expected (Layout.walk lay ~tree row)) then ok := false
      done;
      !ok)
    rows
  || QCheck2.Test.fail_reportf "layout walk diverges (nt=%d)" tile_size

let test_array_layout_is_bloated () =
  (* Array layout must allocate at least as many slots as there are tiled
     nodes, usually far more. *)
  let p = Program.build (random_forest 3) { Schedule.scalar_baseline with tile_size = 2 } in
  let arr = Layout.build_kind Layout.Array_kind p in
  let sparse = Layout.build_kind Layout.Sparse_kind p in
  check_bool "sparse smaller than array" true
    (Layout.memory_bytes sparse < Layout.memory_bytes arr)

let test_array_layout_root_offsets_disjoint () =
  let p = Program.build (random_forest 4) { Schedule.scalar_baseline with tile_size = 2 } in
  let lay = Layout.build_kind Layout.Array_kind p in
  let roots = lay.Layout.tree_root in
  for i = 0 to Array.length roots - 2 do
    check_bool "offsets increasing" true (roots.(i) < roots.(i + 1))
  done

let test_sparse_layout_single_leaf_tree () =
  let forest =
    Forest.make ~task:Forest.Regression ~num_features:2
      [| Tb_model.Tree.Leaf 4.25 |]
  in
  let p = Program.build forest { Schedule.scalar_baseline with tile_size = 4 } in
  let lay = Layout.build_kind Layout.Sparse_kind p in
  check_bool "root encoded as leaf" true (lay.Layout.tree_root.(0) < 0);
  check_float "walk returns constant" 4.25 (Layout.walk lay ~tree:0 [| 0.0; 0.0 |])

let test_sparse_children_homogeneous () =
  (* Every sparse tile's child pointer must be decodable: tiles with
     negative pointers index the leaf array in range; tiles with
     non-negative pointers index slots in range. *)
  let p = Program.build (random_forest 5) { Schedule.scalar_baseline with tile_size = 3 } in
  let lay = Layout.build_kind Layout.Sparse_kind p in
  let slots = Layout.num_slots lay in
  Array.iteri
    (fun s sid ->
      if sid >= 0 then begin
        let p' = lay.Layout.child_ptr.(s) in
        if p' >= 0 then check_bool "tile children in range" true (p' < slots)
        else
          check_bool "leaf children in range" true
            (-p' - 1 < Array.length lay.Layout.leaf_values)
      end)
    lay.Layout.shape_ids

let test_array_slab_cap () =
  (* A pathological chain tiled with size 8 would explode the implicit
     array indexing; builder must refuse. *)
  let rec chain n =
    if n = 0 then Tb_model.Tree.Leaf 1.0
    else
      Tb_model.Tree.Node
        { feature = 0; threshold = float_of_int n; left = Tb_model.Tree.Leaf 0.0; right = chain (n - 1) }
  in
  let forest = Forest.make ~task:Forest.Regression ~num_features:1 [| chain 30 |] in
  (* Probability tiling with mass on the deep leaf creates a deep chain of
     tiles. *)
  let rows = Array.make 8 [| 1e9 |] in
  let profiles = Tb_model.Model_stats.profile_forest forest rows in
  let schedule =
    { Schedule.scalar_baseline with tile_size = 2; tiling = Schedule.Probability_based }
  in
  let p = Program.build ~profiles forest schedule in
  check_bool "raises or fits" true
    (match Layout.build_kind Layout.Array_kind p with
    | exception Invalid_argument _ -> true
    | lay -> Layout.num_slots lay <= Layout.max_array_slots + 1)

(* Ops *)

let test_step_ops_scalar_vs_vector () =
  let scalar =
    Ops.step_ops ~layout:Layout.Array_kind ~tile_size:1 (Ops.Tile_step { leaf_check = true })
  in
  let vector =
    Ops.step_ops ~layout:Layout.Array_kind ~tile_size:8 (Ops.Tile_step { leaf_check = true })
  in
  check_bool "scalar has predicate branch" true
    (List.mem Ops.Scalar_compare_branch scalar);
  check_bool "vector has gather" true (List.mem Ops.Gather_row vector);
  check_bool "vector has no predicate branch" false
    (List.mem Ops.Scalar_compare_branch vector)

let test_step_ops_sparse_has_child_ptr () =
  let sparse =
    Ops.step_ops ~layout:Layout.Sparse_kind ~tile_size:4 (Ops.Tile_step { leaf_check = false })
  in
  let arr =
    Ops.step_ops ~layout:Layout.Array_kind ~tile_size:4 (Ops.Tile_step { leaf_check = false })
  in
  check_bool "sparse loads child ptr" true (List.mem Ops.Load_child_ptr sparse);
  check_bool "array does not" false (List.mem Ops.Load_child_ptr arr)

let test_unchecked_steps_have_no_branches () =
  let ops =
    Ops.step_ops ~layout:Layout.Sparse_kind ~tile_size:8 (Ops.Tile_step { leaf_check = false })
  in
  check_bool "no leaf check" false (List.mem Ops.Leaf_check_branch ops);
  check_bool "no loop branch" false (List.mem Ops.Loop_back_branch ops)

let test_dependency_chain_subset_of_step () =
  List.iter
    (fun (layout, nt) ->
      let step = Ops.step_ops ~layout ~tile_size:nt (Ops.Tile_step { leaf_check = true }) in
      let chain = Ops.dependency_chain ~layout ~tile_size:nt (Ops.Tile_step { leaf_check = true }) in
      List.iter
        (fun op -> check_bool (Ops.op_name op ^ " in step") true (List.mem op step))
        chain)
    [ (Layout.Array_kind, 1); (Layout.Array_kind, 8); (Layout.Sparse_kind, 4) ]

let test_code_bytes_ordering () =
  let b walk = Ops.estimated_code_bytes ~layout:Layout.Sparse_kind ~tile_size:8 walk in
  check_bool "unrolled bigger than loop" true
    (b (Mir.Unrolled_walk { depth = 6 }) > b Mir.Loop_walk);
  check_bool "deeper unroll bigger" true
    (b (Mir.Unrolled_walk { depth = 8 }) > b (Mir.Unrolled_walk { depth = 4 }))

(* Lower *)

let lower_equivalence_property seed =
  let rng = Prng.create seed in
  let forest = Forest.random ~num_trees:10 ~max_depth:7 ~num_features:6 rng in
  let schedule =
    {
      Schedule.scalar_baseline with
      tile_size = 1 + Prng.int rng 6;
      loop_order =
        (if Prng.bool rng then Schedule.One_tree_at_a_time else Schedule.One_row_at_a_time);
      pad_and_unroll = Prng.bool rng;
      peel = Prng.bool rng;
      interleave = 1 lsl Prng.int rng 4;
      layout = (if Prng.bool rng then Schedule.Sparse_layout else Schedule.Array_layout);
    }
  in
  let lp = Lower.lower forest schedule in
  let rows = random_rows rng 6 16 in
  (* The layout holds the HIR's trees in its order, and each walks to its
     source tree's leaf value, bit for bit. *)
  let hir_trees = lp.Lower.hir.Program.trees in
  let num_trees = lp.Lower.layout.Layout.num_trees in
  (num_trees = Array.length hir_trees
  && Array.for_all
       (fun row ->
         Array.for_all
           (fun tree ->
             let source = hir_trees.(tree).Program.original_index in
             floats_same_bits
               (Layout.walk lp.Lower.layout ~tree row)
               (Tb_model.Tree.predict forest.Forest.trees.(source) row))
           (Array.init num_trees Fun.id))
       rows)
  || QCheck2.Test.fail_reportf "lowered reference diverges: %s"
       (Schedule.to_string schedule)

let test_dump_contains_sections () =
  let lp = Lower.lower (random_forest 7) Schedule.default in
  let s = Lower.dump lp in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sec -> check_bool sec true (contains sec))
    [ "schedule"; "MIR loop nest"; "LIR walk body"; "layout"; "WalkDecisionTree" ]

let suite =
  [
    qcheck ~name:"array layout walk == tiled walk" seed_gen
      (layout_walk_equivalence_property Layout.Array_kind);
    qcheck ~name:"sparse layout walk == tiled walk" seed_gen
      (layout_walk_equivalence_property Layout.Sparse_kind);
    quick "sparse smaller than array" test_array_layout_is_bloated;
    quick "array offsets disjoint" test_array_layout_root_offsets_disjoint;
    quick "sparse single-leaf tree" test_sparse_layout_single_leaf_tree;
    quick "sparse children homogeneous" test_sparse_children_homogeneous;
    quick "array slab cap" test_array_slab_cap;
    quick "scalar vs vector step ops" test_step_ops_scalar_vs_vector;
    quick "sparse step loads child ptr" test_step_ops_sparse_has_child_ptr;
    quick "unchecked steps branch-free" test_unchecked_steps_have_no_branches;
    quick "dependency chain subset of step" test_dependency_chain_subset_of_step;
    quick "code size ordering" test_code_bytes_ordering;
    qcheck ~name:"lowered reference == forest" seed_gen lower_equivalence_property;
    quick "dump contains sections" test_dump_contains_sections;
  ]
