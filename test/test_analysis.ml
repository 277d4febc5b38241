(* The static-analysis framework: per-level verifiers, the verified pass
   manager, and negative tests that seeded IR mutations are rejected with
   the right structured diagnostic. *)

open Helpers
module Prng = Tb_util.Prng
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Generators = Tb_data.Generators
module Train = Tb_gbt.Train
module Itree = Tb_hir.Itree
module Tiling = Tb_hir.Tiling
module Lut = Tb_hir.Lut
module Schedule = Tb_hir.Schedule
module Program = Tb_hir.Program
module Mir = Tb_mir.Mir
module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Reg_ir = Tb_lir.Reg_ir
module Reg_codegen = Tb_lir.Reg_codegen
module Jit = Tb_vm.Jit
module D = Tb_diag.Diagnostic
module Hir_check = Tb_analysis.Hir_check
module Mir_check = Tb_analysis.Mir_check
module Lir_check = Tb_analysis.Lir_check
module Validate = Tb_analysis.Validate
module Passman = Tb_core.Passman

let show ds = String.concat "; " (List.map D.to_string ds)
let has_code c ds = List.exists (fun d -> d.D.code = c) ds

let check_has_code c ds =
  if not (has_code c ds) then
    Alcotest.failf "expected a %s finding, got: [%s]" c (show ds)

(* The paths of every finding with code [c], in report order: pins where a
   finding points, not only that it fires. *)
let check_code_paths c paths ds =
  check_has_code c ds;
  Alcotest.(check (list (list string)))
    (c ^ " paths") paths
    (List.filter_map
       (fun d -> if d.D.code = c then Some d.D.path else None)
       ds)

let check_no_errors what ds =
  if D.has_errors ds then
    Alcotest.failf "%s: unexpected errors: [%s]" what (show (D.errors ds))

let random_schedule rng =
  {
    Schedule.scalar_baseline with
    tile_size = 1 + Prng.int rng 5;
    tiling =
      Prng.choose rng
        [| Schedule.Basic; Schedule.Probability_based |];
    loop_order =
      (if Prng.bool rng then Schedule.One_tree_at_a_time
       else Schedule.One_row_at_a_time);
    pad_and_unroll = Prng.bool rng;
    peel = Prng.bool rng;
    interleave = 1 lsl Prng.int rng 3;
    layout =
      (if Prng.bool rng then Schedule.Sparse_layout
       else Schedule.Array_layout);
    num_threads = 1 + Prng.int rng 4;
  }

(* --- the verified pipeline on well-formed inputs --- *)

let test_passman_default_clean () =
  let rng = Prng.create 11 in
  let forest = Forest.random ~num_trees:8 ~max_depth:6 ~num_features:5 rng in
  match Passman.lower forest Schedule.default with
  | Error report ->
    Alcotest.failf "pipeline rejected a valid model:\n%s"
      (Passman.report_to_string report)
  | Ok (_, report) ->
    check_bool "report ok" true (Passman.ok report);
    let names = List.map (fun s -> s.Passman.stage) report.Passman.stages in
    List.iter
      (fun s -> check_bool s true (List.mem s names))
      [
        "schedule"; "hir"; "mir:lower"; "mir:specialize"; "mir:interleave";
        "mir:parallelize"; "lir:layout"; "lir:walks";
      ]

(* Translation validation is one stage over every compiled form, after
   the last lowering check. *)
let test_passman_one_validate_stage () =
  let rng = Prng.create 13 in
  let forest = Forest.random ~num_trees:6 ~max_depth:5 ~num_features:5 rng in
  match Passman.lower forest Schedule.default with
  | Error report ->
    Alcotest.failf "pipeline rejected a valid model:\n%s"
      (Passman.report_to_string report)
  | Ok (_, report) ->
    let names = List.map (fun s -> s.Passman.stage) report.Passman.stages in
    check_int "one validate stage" 1
      (List.length (List.filter (String.equal "validate") names));
    List.iter
      (fun s -> check_bool (s ^ " is gone") false (List.mem s names))
      [ "validate:hir"; "validate:mir"; "validate:lir"; "validate:reg" ];
    let rec after = function
      | "lir:walks" :: next :: _ -> Some next
      | _ :: rest -> after rest
      | [] -> None
    in
    Alcotest.(check (option string)) "validate follows lir:walks"
      (Some "validate") (after names)

let test_passman_matches_unverified_lower () =
  let rng = Prng.create 12 in
  let forest = Forest.random ~num_trees:6 ~max_depth:6 ~num_features:5 rng in
  let rows = random_rows rng 5 17 in
  match Passman.lower forest Schedule.default with
  | Error report ->
    Alcotest.failf "pipeline failed:\n%s" (Passman.report_to_string report)
  | Ok (lowered, _) ->
    let want = jit (Lower.lower forest Schedule.default) rows in
    let got = jit lowered rows in
    check_bool "verified pipeline computes the same program" true
      (Array.for_all2 (fun a b -> arrays_close a b) want got)

let pipeline_clean_property seed =
  let rng = Prng.create seed in
  let forest =
    Forest.random
      ~num_trees:(1 + Prng.int rng 8)
      ~max_depth:(1 + Prng.int rng 6)
      ~num_features:(2 + Prng.int rng 6)
      rng
  in
  let schedule = random_schedule rng in
  let batch_size = 1 + Prng.int rng 64 in
  match Passman.lower ~batch_size forest schedule with
  | Ok (_, report) ->
    Passman.ok report
    || QCheck2.Test.fail_reportf "errors on %s:\n%s"
         (Schedule.to_string schedule)
         (Passman.report_to_string report)
  | Error report ->
    QCheck2.Test.fail_reportf "pipeline rejected %s:\n%s"
      (Schedule.to_string schedule)
      (Passman.report_to_string report)

let walk_programs_verify_property seed =
  let rng = Prng.create seed in
  let forest =
    Forest.random
      ~num_trees:(1 + Prng.int rng 6)
      ~max_depth:(1 + Prng.int rng 6)
      ~num_features:(2 + Prng.int rng 5)
      rng
  in
  let schedule = random_schedule rng in
  let lp = Lower.lower forest schedule in
  let env =
    Lir_check.env_of_layout ~num_features:forest.Forest.num_features
      lp.Lower.layout
  in
  List.for_all
    (fun (i, p) ->
      let ds = Lir_check.check_program env p in
      (not (D.has_errors ds))
      || QCheck2.Test.fail_reportf "variant %d of %s: [%s]" i
           (Schedule.to_string schedule)
           (show (D.errors ds)))
    (Reg_codegen.all_variants lp.Lower.layout lp.Lower.mir)

let test_table2_grid_clean () =
  let rng = Prng.create 13 in
  let forest = Forest.random ~num_trees:6 ~max_depth:5 ~num_features:5 rng in
  List.iter
    (fun schedule ->
      match Passman.lower ~batch_size:32 forest schedule with
      | Ok (_, report) ->
        if not (Passman.ok report) then
          Alcotest.failf "grid schedule %s:\n%s"
            (Schedule.to_string schedule)
            (Passman.report_to_string report)
      | Error report ->
        Alcotest.failf "grid schedule %s rejected:\n%s"
          (Schedule.to_string schedule)
          (Passman.report_to_string report))
    Schedule.table2_grid

let test_trained_model_clean () =
  let rng = Prng.create 14 in
  let ds = Generators.higgs ~rows:400 rng in
  let params = { Train.default_params with num_rounds = 12; max_depth = 5 } in
  let forest = Train.fit ~params ds in
  List.iter
    (fun schedule ->
      match Passman.lower ~batch_size:256 forest schedule with
      | Ok (_, report) -> check_bool "trained model ok" true (Passman.ok report)
      | Error report ->
        Alcotest.failf "trained model rejected on %s:\n%s"
          (Schedule.to_string schedule)
          (Passman.report_to_string report))
    [
      Schedule.scalar_baseline;
      Schedule.default;
      { Schedule.default with layout = Schedule.Array_layout; tile_size = 3 };
      Schedule.with_threads Schedule.default 4;
    ]

(* --- negative tests: seeded mutations, one distinct code each --- *)

(* A fixed tree whose internal nodes are identifiable by their feature id:
   f0 at the root, f1/f2 down the left spine, f3 on the right. *)
let handmade_tree =
  let n f l r = Tree.Node { feature = f; threshold = 0.5; left = l; right = r } in
  n 0
    (n 1 (Tree.Leaf 1.0) (n 2 (Tree.Leaf 2.0) (Tree.Leaf 3.0)))
    (n 3 (Tree.Leaf 4.0) (Tree.Leaf 5.0))

let node_with_feature it f =
  let found = ref (-1) in
  for i = 0 to it.Itree.num_nodes - 1 do
    if (not (Itree.is_leaf it i)) && it.Itree.feature.(i) = f then found := i
  done;
  if !found < 0 then Alcotest.failf "no internal node with feature %d" f;
  !found

let test_mutated_tiling_leaf_in_tile () =
  let it = Itree.of_tree handmade_tree in
  let t = Tiling.basic it ~tile_size:2 in
  let tile_of_node = Array.copy t.Tiling.tile_of_node in
  let leaf = ref (-1) in
  for i = 0 to it.Itree.num_nodes - 1 do
    if Itree.is_leaf it i && !leaf < 0 then leaf := i
  done;
  tile_of_node.(!leaf) <- 0;
  check_code_paths "H003" [ [ "node 2" ] ]
    (Hir_check.check_tiling it { t with Tiling.tile_of_node })

let test_mutated_tiling_unassigned_internal () =
  let it = Itree.of_tree handmade_tree in
  let t = Tiling.basic it ~tile_size:2 in
  let tile_of_node = Array.copy t.Tiling.tile_of_node in
  tile_of_node.(node_with_feature it 3) <- -1;
  check_code_paths "H001" [ [ "node 6" ]; [ "tile 1" ] ]
    (Hir_check.check_tiling it { t with Tiling.tile_of_node })

let test_mutated_tiling_disconnected_tile () =
  (* f2 and f3 sit in different subtrees: a tile holding exactly those two
     nodes is not edge-connected. *)
  let it = Itree.of_tree handmade_tree in
  let tile_of_node = Array.make it.Itree.num_nodes (-1) in
  tile_of_node.(node_with_feature it 0) <- 0;
  tile_of_node.(node_with_feature it 1) <- 0;
  tile_of_node.(node_with_feature it 2) <- 1;
  tile_of_node.(node_with_feature it 3) <- 1;
  check_code_paths "H002" [ [ "tile 1" ] ]
    (Hir_check.check_tiling it { Tiling.tile_size = 2; tile_of_node; num_tiles = 2 })

let test_mutated_tiling_not_maximal () =
  (* Room for two more nodes in the root tile while its out-edges lead to
     internal nodes: violates maximality. *)
  let it = Itree.of_tree handmade_tree in
  let tile_of_node = Array.make it.Itree.num_nodes (-1) in
  tile_of_node.(node_with_feature it 0) <- 0;
  tile_of_node.(node_with_feature it 1) <- 1;
  tile_of_node.(node_with_feature it 2) <- 1;
  tile_of_node.(node_with_feature it 3) <- 2;
  check_code_paths "H004" [ [ "tile 0" ] ]
    (Hir_check.check_tiling it { Tiling.tile_size = 3; tile_of_node; num_tiles = 3 })

let test_mutated_lut_entry () =
  let lut = Lut.create ~tile_size:2 in
  let shape =
    Tb_hir.Shape.Node (Some (Tb_hir.Shape.Node (None, None)), None)
  in
  let id = Lut.shape_id lut shape in
  (Lut.table lut).(id).(0) <- 99;
  check_code_paths "H010" [ [ "shape 0" ] ] (Hir_check.check_lut lut)

(* A corrupted lane threshold in a built program: the H032 finding comes
   from [check_tree_against_source], so its path is the tree segment that
   [check_program] prefixes onto the tile's own. *)
let test_mutated_program_lane_threshold () =
  let rng = Prng.create 19 in
  let forest = Forest.random ~num_trees:4 ~max_depth:5 ~num_features:4 rng in
  let hir = Program.build forest Schedule.default in
  check_no_errors "unmutated program" (Hir_check.check_program hir);
  let module T = Tb_hir.Tiled_tree in
  (* The first real tile below the root of a tree other than the first. *)
  let target =
    List.find_map
      (fun i ->
        let nodes = hir.Program.trees.(i).Program.tiled.T.nodes in
        List.find_map
          (fun j ->
            match nodes.(j) with
            | T.Tile tile when not (T.is_dummy tile) -> Some (i, j, tile)
            | _ -> None)
          (List.init (Array.length nodes - 1) (fun j -> j + 1)))
      (List.init (Array.length hir.Program.trees - 1) (fun i -> i + 1))
  in
  match target with
  | None -> Alcotest.fail "no real tile below a root"
  | Some (i, j, tile) ->
    let entry = hir.Program.trees.(i) in
    let nodes = Array.copy entry.Program.tiled.T.nodes in
    let thresholds = Array.copy tile.T.thresholds in
    thresholds.(0) <- thresholds.(0) +. 1.0;
    nodes.(j) <- T.Tile { tile with T.thresholds };
    let trees = Array.copy hir.Program.trees in
    trees.(i) <-
      { entry with Program.tiled = { entry.Program.tiled with T.nodes } };
    check_code_paths "H032"
      [ [ Printf.sprintf "tree %d" i; Printf.sprintf "tile node %d" j ] ]
      (Hir_check.check_program { hir with Program.trees })

let test_illegal_schedule_fields () =
  check_has_code "S002"
    (Hir_check.check_schedule { Schedule.default with interleave = 0 });
  check_has_code "S001"
    (Hir_check.check_schedule { Schedule.default with tile_size = 9 });
  check_has_code "S004"
    (Hir_check.check_schedule { Schedule.default with alpha = 0.0 });
  check_has_code "S003"
    (Hir_check.check_schedule { Schedule.default with num_threads = 0 })

let test_passman_stops_at_bad_schedule () =
  let rng = Prng.create 16 in
  let forest = Forest.random ~num_trees:3 ~max_depth:4 ~num_features:4 rng in
  match Passman.lower forest { Schedule.default with interleave = 0 } with
  | Ok _ -> Alcotest.fail "illegal schedule accepted"
  | Error report ->
    check_has_code "S002" (Passman.diagnostics report);
    check_int "stopped at the first stage" 1 (List.length report.Passman.stages);
    check_string "stage name" "schedule"
      (List.hd report.Passman.stages).Passman.stage

let small_hir_and_mir () =
  let rng = Prng.create 17 in
  let forest = Forest.random ~num_trees:4 ~max_depth:5 ~num_features:4 rng in
  let hir = Program.build forest Schedule.default in
  (hir, Mir.lower hir)

let test_mutated_mir_duplicated_group () =
  let hir, mir = small_hir_and_mir () in
  let mutated =
    { mir with Mir.group_plans = Array.append mir.Mir.group_plans [| mir.Mir.group_plans.(0) |] }
  in
  check_has_code "M001" (Mir_check.check hir mutated)

let nonuniform_hir_and_mir () =
  (* Leaf depths 1, 2, 3, 3: not uniform, so an unrolled walk is illegal. *)
  let n f l r = Tree.Node { feature = f; threshold = 0.5; left = l; right = r } in
  let tree =
    n 0 (Tree.Leaf 1.0)
      (n 1 (Tree.Leaf 2.0) (n 2 (Tree.Leaf 3.0) (Tree.Leaf 4.0)))
  in
  let forest = Forest.make ~task:Forest.Regression ~num_features:3 [| tree |] in
  let schedule =
    { Schedule.scalar_baseline with pad_and_unroll = false; peel = false }
  in
  let hir = Program.build forest schedule in
  (hir, Mir.lower_of_hir hir)

let set_walk mir walk =
  {
    mir with
    Mir.group_plans = Array.map (fun p -> { p with Mir.walk }) mir.Mir.group_plans;
  }

let test_mutated_mir_unrolled_nonuniform () =
  let hir, mir = nonuniform_hir_and_mir () in
  check_has_code "M002"
    (Mir_check.check hir (set_walk mir (Mir.Unrolled_walk { depth = 3 })))

let test_mutated_mir_overdeep_peel () =
  let hir, mir = nonuniform_hir_and_mir () in
  check_has_code "M003"
    (Mir_check.check hir (set_walk mir (Mir.Peeled_walk { peel = 99 })))

let test_row_partition_overlap_and_gap () =
  check_has_code "M010"
    (Mir_check.check_row_partition ~batch:8 [| (0, 5); (3, 8) |]);
  check_has_code "M011"
    (Mir_check.check_row_partition ~batch:8 [| (0, 3); (5, 8) |]);
  check_no_errors "real partition"
    (Mir_check.check_row_partition ~batch:1000
       (Mir.row_partition ~num_threads:7 ~batch:1000))

let small_layout_env () =
  let rng = Prng.create 18 in
  let forest = Forest.random ~num_trees:4 ~max_depth:5 ~num_features:4 rng in
  let lp = Lower.lower forest Schedule.default in
  (lp.Lower.layout, Lir_check.env_of_layout ~num_features:4 lp.Lower.layout)

let walk_stub body =
  {
    Reg_ir.tile_size = 8;
    layout = Layout.Sparse_kind;
    body;
    num_iregs = 10;
    num_fregs = 1;
    num_vregs = 4;
    lanes = 1;
  }

let test_mutated_walk_constant_oob_load () =
  let _, env = small_layout_env () in
  let p =
    walk_stub
      [
        Reg_ir.Iset (2, Reg_ir.Iconst 1_000_000);
        Reg_ir.Fset (0, Reg_ir.Fload (Reg_ir.Thresholds, 2));
      ]
  in
  check_has_code "L010" (Lir_check.check_program env p)

let test_mutated_walk_swapped_register () =
  (* Swapping the destination and source of the first def leaves the source
     register undefined at its use. *)
  let _, env = small_layout_env () in
  let p = walk_stub [ Reg_ir.Iset (2, Reg_ir.Imov 5) ] in
  check_has_code "L002" (Lir_check.check_program env p);
  check_has_code "L002" (Reg_ir.check p);
  let out_of_range = walk_stub [ Reg_ir.Iset (99, Reg_ir.Iconst 0) ] in
  check_has_code "L001" (Reg_ir.check out_of_range);
  (* The bounds dataflow must not run on a program with an error: it
     would index its register state with 99. *)
  check_has_code "L001" (Lir_check.check_program env out_of_range)

let test_mutated_layout_bad_root () =
  let lay, _ = small_layout_env () in
  lay.Layout.tree_root.(0) <- 1_000_000;
  check_has_code "L022" (Lir_check.check_layout ~num_features:4 lay)

let test_mutated_layout_dangling_child_ptr () =
  let lay, _ = small_layout_env () in
  let mutated = ref false in
  Array.iteri
    (fun s p ->
      if (not !mutated) && p >= 0 then begin
        lay.Layout.child_ptr.(s) <- 1_000_000;
        mutated := true
      end)
    lay.Layout.child_ptr;
  check_bool "found a tile slot to corrupt" true !mutated;
  check_has_code "L020" (Lir_check.check_layout ~num_features:4 lay)

let test_mutated_layout_bad_leaf_index () =
  let lay, _ = small_layout_env () in
  let mutated = ref false in
  Array.iteri
    (fun s p ->
      if (not !mutated) && p < 0 then begin
        lay.Layout.child_ptr.(s) <- -1_000_000;
        mutated := true
      end)
    lay.Layout.child_ptr;
  check_bool "found a leaf-children slot to corrupt" true !mutated;
  check_has_code "L023" (Lir_check.check_layout ~num_features:4 lay)

let test_mutated_layout_bad_lut_row () =
  let lay, _ = small_layout_env () in
  lay.Layout.lut.(0).(0) <- 99;
  check_has_code "L024" (Lir_check.check_layout ~num_features:4 lay)

(* Walk-path mutants: every index in them is in range, so only the
   closure rules catch them. A child pointer past the slots or onto the
   next tree's root walks out of the tree, one onto its own slot cycles,
   an array leaf marker turned tile walks out of its slab, and a slab
   base past the slots used to make the check itself index out of
   bounds. *)
let test_mutated_layout_root_child_ptr () =
  let self_pointer lay target =
    let child_ptr = Array.copy lay.Layout.child_ptr in
    child_ptr.(lay.Layout.tree_root.(0)) <- target;
    check_has_code "L020"
      (Lir_check.check_layout ~num_features:4 { lay with Layout.child_ptr })
  in
  let lay, _ = small_layout_env () in
  let root = lay.Layout.tree_root.(0) in
  check_bool "trees 0 and 1 are rooted at tiles" true
    (root >= 0 && lay.Layout.tree_root.(1) > root);
  List.iter (self_pointer lay) [ Layout.num_slots lay; lay.Layout.tree_root.(1); root ];
  (* With one-lane tiles tree 0 spans more slots than its root's children
     reach, so only the strictly-past rule rejects the pointer to itself. *)
  let rng = Prng.create 18 in
  let forest = Forest.random ~num_trees:4 ~max_depth:5 ~num_features:4 rng in
  let lay =
    (Lower.lower forest { Schedule.default with Schedule.tile_size = 1 }).Lower.layout
  in
  let root = lay.Layout.tree_root.(0) in
  check_bool "tree 0 spans past its root's children" true
    (root >= 0 && lay.Layout.tree_root.(1) > root + 2);
  self_pointer lay root

let small_array_layout () =
  let rng = Prng.create 18 in
  let forest = Forest.random ~num_trees:4 ~max_depth:5 ~num_features:4 rng in
  (Lower.lower forest Schedule.scalar_baseline).Lower.layout

let test_mutated_layout_array_leaf_tiles () =
  let lay = small_array_layout () in
  let shape_ids =
    Array.map
      (fun sid -> if sid = Layout.leaf_marker then 0 else sid)
      lay.Layout.shape_ids
  in
  check_has_code "L020"
    (Lir_check.check_layout ~num_features:4 { lay with Layout.shape_ids })

let test_mutated_layout_slab_past_slots () =
  let lay = small_array_layout () in
  let tree_root = Array.copy lay.Layout.tree_root in
  tree_root.(1) <- Layout.num_slots lay + 3;
  check_has_code "L022"
    (Lir_check.check_layout ~num_features:4 { lay with Layout.tree_root })

(* [Layout.walk] with a step budget: a walk that visits more slots than
   the layout has revisits one, so it would never end. *)
let bounded_walk (lay : Layout.t) ~tree row =
  let budget = ref (Layout.num_slots lay + 1) in
  let visit () =
    decr budget;
    if !budget < 0 then failwith "walk exceeds slots + 1 steps"
  in
  let child s =
    lay.Layout.lut.(lay.Layout.shape_ids.(s)).(Layout.comparison_bits lay s row)
  in
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let base = lay.Layout.tree_root.(tree) in
    let rec go local =
      visit ();
      let s = base + local in
      if lay.Layout.shape_ids.(s) = Layout.leaf_marker then
        lay.Layout.thresholds.(s * lay.Layout.tile_size)
      else go ((local * (lay.Layout.tile_size + 1)) + child s + 1)
    in
    go 0
  | Layout.Sparse_kind ->
    let r = lay.Layout.tree_root.(tree) in
    if r < 0 then lay.Layout.leaf_values.(-r - 1)
    else begin
      let rec go s =
        visit ();
        let c = child s and p = lay.Layout.child_ptr.(s) in
        if p >= 0 then go (p + c) else lay.Layout.leaf_values.(-p - 1 + c)
      in
      go r
    end

(* Totality: one entry of a small random layout set to a value near its
   valid range. The check never raises, and a layout it passes walks
   every tree to a leaf within its step bound on random rows. *)
let layout_check_total_property seed =
  let rng = Prng.create seed in
  let nf = 2 + Prng.int rng 4 in
  let forest =
    Forest.random ~num_trees:(1 + Prng.int rng 4) ~max_depth:(1 + Prng.int rng 4)
      ~num_features:nf rng
  in
  let grid = Array.of_list Schedule.table2_grid in
  let schedule = grid.(Prng.int rng (Array.length grid)) in
  let lay = (Lower.lower forest schedule).Lower.layout in
  let lay =
    {
      lay with
      Layout.tree_root = Array.copy lay.Layout.tree_root;
      shape_ids = Array.copy lay.Layout.shape_ids;
      child_ptr = Array.copy lay.Layout.child_ptr;
      features = Array.copy lay.Layout.features;
      lut = Array.map Array.copy lay.Layout.lut;
    }
  in
  let slots = Layout.num_slots lay and leaves = Array.length lay.Layout.leaf_values in
  let set a lo hi =
    if Array.length a > 0 then
      a.(Prng.int rng (Array.length a)) <- lo + Prng.int rng (hi - lo + 1)
  in
  (match Prng.int rng 6 with
  | 0 -> set lay.Layout.shape_ids (-3) (Array.length lay.Layout.lut)
  | 1 -> set lay.Layout.child_ptr (-leaves - 2) (slots + 1)
  | 2 ->
    (* Next to its own slot: at or before it, the pointer makes a cycle. *)
    let cp = lay.Layout.child_ptr in
    if Array.length cp > 0 then begin
      let s = Prng.int rng (Array.length cp) in
      cp.(s) <- s - 1 + Prng.int rng 3
    end
  | 3 -> set lay.Layout.tree_root (-leaves - 2) (slots + 1)
  | 4 -> set lay.Layout.features (-1) nf
  | _ ->
    let lut = lay.Layout.lut in
    set lut.(Prng.int rng (Array.length lut)) (-1) (lay.Layout.tile_size + 1));
  if not (D.has_errors (Lir_check.check_layout ~num_features:nf lay)) then
    Array.iter
      (fun row ->
        for tree = 0 to lay.Layout.num_trees - 1 do
          ignore (bounded_walk lay ~tree row)
        done)
      (random_rows rng nf 8);
  true

(* --- the congruence (stride) domain --- *)

let test_congruence_domain () =
  let module C = Tb_analysis.Congruence in
  let c = C.const in
  check_bool "const membership" true (C.mem 7 (c 7));
  check_bool "const exclusion" false (C.mem 8 (c 7));
  (* join of two constants = stride |a-b| through both *)
  let j = C.join (c 8) (c 14) in
  check_int "join 8 14: modulus" 6 j.C.m;
  check_int "join 8 14: residue" 2 j.C.r;
  List.iter
    (fun x -> check_bool (Printf.sprintf "%d in 6Z+2" x) true (C.mem x j))
    [ 2; 8; 14; 20; -4 ];
  check_bool "13 not in 6Z+2" false (C.mem 13 j);
  (* arithmetic: (6Z+2) + (6Z+2) = 6Z+4; scaling multiplies the stride *)
  let s = C.add j j in
  check_int "sum modulus" 6 s.C.m;
  check_int "sum residue" 4 s.C.r;
  let m = C.mul_const 4 (c 3) in
  check_bool "4*3 is the constant 12" true (C.is_const m && C.mem 12 m);
  let scaled = C.mul_const 4 j in
  check_int "scaled modulus" 24 scaled.C.m;
  check_int "scaled residue" 8 scaled.C.r;
  (* sub keeps the gcd stride *)
  let d = C.sub j (c 1) in
  check_int "difference modulus" 6 d.C.m;
  check_int "difference residue" 1 d.C.r;
  (* join with incompatible stride collapses toward top *)
  check_bool "join with top is top" true (C.is_top (C.join j C.top));
  (* interval tightening: snap bounds to the nearest class member *)
  check_bool "tighten_lo rounds up" true (C.tighten_lo j 3.0 = 8.0);
  check_bool "tighten_lo on a member is fixed" true (C.tighten_lo j 8.0 = 8.0);
  check_bool "tighten_hi rounds down" true (C.tighten_hi j 13.0 = 8.0);
  check_bool "tighten_lo passes -inf through" true
    (C.tighten_lo j Float.neg_infinity = Float.neg_infinity);
  (* empty tightened interval: lo jumps past hi, which the analysis reads
     as "no concrete index reaches this access" *)
  check_bool "tightening can empty an interval" true
    (C.tighten_lo j 3.0 > C.tighten_hi j 7.0)

(* --- the relational analysis on real sparse walks --- *)

let sparse_loop_schedule =
  {
    Schedule.default with
    Schedule.tile_size = 4;
    interleave = 1;
    pad_and_unroll = false;
    peel = false;
    layout = Schedule.Sparse_layout;
  }

(* Intervals alone would warn L011 on this loop: the largest child pointer
   plus the largest LUT child overshoots the slot arrays. Pairing each
   pointer with its own slot's children against the layout's advance
   range discharges every one of them. *)
let test_relational_discharges_sparse_l011 () =
  let rng = Prng.create 31 in
  let forest = Forest.random ~num_trees:6 ~max_depth:6 ~num_features:5 rng in
  let lp = Lower.lower forest sparse_loop_schedule in
  let l011 =
    List.filter
      (fun d -> d.D.code = "L011")
      (Lir_check.check ~num_features:5 lp.Lower.layout lp.Lower.mir)
  in
  check_bool
    (Printf.sprintf "no L011 on the sparse loop, kept: [%s]" (show l011))
    true (l011 = [])

let test_jam_analysis_does_not_multiply_findings () =
  (* Per-lane analysis of a jammed variant must report exactly the
     single-lane findings (plus the L014 partition fact) — no cross-lane
     widening, no per-lane duplication. *)
  let rng = Prng.create 37 in
  let forest = Forest.random ~num_trees:8 ~max_depth:5 ~num_features:5 rng in
  let jam_schedule = { sparse_loop_schedule with Schedule.interleave = 4 } in
  let count code ds = List.length (List.filter (fun d -> d.D.code = code) ds) in
  let run schedule =
    let lp = Lower.lower forest schedule in
    Lir_check.check ~num_features:5 lp.Lower.layout lp.Lower.mir
  in
  let single = run sparse_loop_schedule in
  let jammed = run jam_schedule in
  check_bool "jammed variants prove lane independence" true
    (count "L014" jammed > 0);
  check_int "no lane collisions" 0 (count "L013" jammed);
  List.iter
    (fun code ->
      check_int
        (Printf.sprintf "%s count matches the single-lane analysis" code)
        (count code single) (count code jammed))
    [ "L010"; "L011"; "L012" ]

(* --- translation validation (T00x) --- *)

let fail_findings where schedule fs =
  Alcotest.failf "validator findings under %s at %s: %s"
    (Schedule.to_string schedule)
    where
    (show (Validate.to_diagnostics fs))

let test_validate_table2_clean () =
  let rng = Prng.create 21 in
  let forest = Forest.random ~num_trees:6 ~max_depth:5 ~num_features:5 rng in
  List.iter
    (fun schedule ->
      let lp = Lower.lower forest schedule in
      match Validate.check_all lp.Lower.hir lp.Lower.mir lp.Lower.layout with
      | [] -> ()
      | fs -> fail_findings "check_all" schedule fs)
    Schedule.table2_grid

(* The ISSUE-level property: on random models x Table II schedules the
   validator passes, and every per-form summary is an exact partition of
   feature space — each input row hits exactly one (box, leaf) path. *)
let validate_clean_and_tiling_property seed =
  let rng = Prng.create seed in
  let forest =
    Forest.random
      ~num_trees:(1 + Prng.int rng 6)
      ~max_depth:(1 + Prng.int rng 6)
      ~num_features:(2 + Prng.int rng 6)
      rng
  in
  let grid = Array.of_list Schedule.table2_grid in
  let schedule = grid.(Prng.int rng (Array.length grid)) in
  let lp = Lower.lower forest schedule in
  (match Validate.check_all lp.Lower.hir lp.Lower.mir lp.Lower.layout with
  | [] -> ()
  | fs ->
    QCheck2.Test.fail_reportf "validator findings under %s: %s"
      (Schedule.to_string schedule)
      (show (Validate.to_diagnostics fs)));
  let check what tree (s : Validate.summary) =
    if s.Validate.stuck <> [] then
      QCheck2.Test.fail_reportf "%s summary of tree %d has stuck regions" what
        tree;
    if not (Validate.exact_partition s) then
      QCheck2.Test.fail_reportf
        "%s summary of tree %d does not tile feature space" what tree
  in
  Array.iteri
    (fun i (e : Program.tree_entry) ->
      let src =
        lp.Lower.hir.Program.forest.Forest.trees.(e.Program.original_index)
      in
      check "source" i (Validate.summarize_source src);
      check "hir" i (Validate.summarize_hir e.Program.tiled);
      check "layout" i (Validate.summarize_layout lp.Lower.layout ~tree:i))
    lp.Lower.hir.Program.trees;
  true

let test_validate_summary_shape () =
  (* The reduced LUT decision structures must keep summaries linear in
     the source leaf count: padding and hop tiles add no paths. *)
  let rng = Prng.create 23 in
  let forest = Forest.random ~num_trees:4 ~max_depth:6 ~num_features:5 rng in
  List.iter
    (fun schedule ->
      let lp = Lower.lower forest schedule in
      Array.iteri
        (fun i (e : Program.tree_entry) ->
          let src =
            lp.Lower.hir.Program.forest.Forest.trees.(e.Program.original_index)
          in
          let leaves = Validate.num_paths (Validate.summarize_source src) in
          let hir = Validate.num_paths (Validate.summarize_hir e.Program.tiled) in
          let lir =
            Validate.num_paths (Validate.summarize_layout lp.Lower.layout ~tree:i)
          in
          check_int (Printf.sprintf "tree %d: hir paths = source leaves" i)
            leaves hir;
          check_int (Printf.sprintf "tree %d: layout paths = source leaves" i)
            leaves lir)
        lp.Lower.hir.Program.trees)
    [ Schedule.default; { Schedule.default with Schedule.layout = Schedule.Sparse_layout } ]

(* ---------------- code registry / census families ---------------- *)

let test_registry_codes_and_families () =
  let module Census = Tb_analysis.Census in
  let registry = D.registry in
  (* Codes are unique. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (code, _) ->
      if Hashtbl.mem seen code then
        Alcotest.failf "code %s registered twice" code;
      Hashtbl.add seen code ())
    registry;
  (* The leading letter determines the level. *)
  let level_of_letter = function
    | 'S' -> D.Schedule
    | 'H' -> D.Hir
    | 'M' -> D.Mir
    | 'L' -> D.Lir
    | 'C' -> D.Cost
    | 'V' -> D.Serve
    | 'T' -> D.Validate
    | 'A' -> D.Artifact
    | 'N' -> D.Numeric
    | c -> Alcotest.failf "unknown code letter %c" c
  in
  List.iter
    (fun (code, level) ->
      check_bool
        (Printf.sprintf "%s level matches its letter" code)
        true
        (level = level_of_letter code.[0]))
    registry;
  (* Table-driven family coverage: every tracked code of every family
     maps back to exactly that family, is registered, and hard/soft are
     subsets of the tracked codes. *)
  List.iter
    (fun (f : Census.family) ->
      List.iter
        (fun code ->
          (match Census.family_of_code code with
          | Some f' ->
            check_string
              (Printf.sprintf "%s belongs to one family" code)
              f.Census.family_name f'.Census.family_name
          | None -> Alcotest.failf "%s tracked but family_of_code = None" code);
          check_bool
            (Printf.sprintf "%s is a registered code" code)
            true
            (List.mem_assoc code registry))
        f.Census.codes;
      List.iter
        (fun code ->
          check_bool
            (Printf.sprintf "hard code %s is tracked" code)
            true
            (List.mem code f.Census.codes))
        f.Census.hard;
      List.iter
        (fun code ->
          check_bool
            (Printf.sprintf "soft code %s is tracked" code)
            true
            (List.mem code f.Census.codes))
        f.Census.soft)
    Census.all_families;
  (* No code is claimed by two families. *)
  let all_tracked =
    List.concat_map (fun (f : Census.family) -> f.Census.codes)
      Census.all_families
  in
  check_int "no family collisions"
    (List.length all_tracked)
    (List.length (List.sort_uniq compare all_tracked));
  (* Expected family per letter, including codes outside any census. *)
  let family_name code =
    Option.map
      (fun (f : Census.family) -> f.Census.family_name)
      (Census.family_of_code code)
  in
  List.iter
    (fun (code, want) ->
      check_bool
        (Printf.sprintf "family_of_code %s" code)
        true
        (family_name code = want))
    [
      ("L010", Some "lir-bounds"); ("L014", Some "lir-bounds");
      ("T001", Some "validate");
      ("T004", Some "validate"); ("N001", Some "numeric");
      ("N004", Some "numeric"); ("S001", None); ("H010", None);
      ("M006", None); ("L001", None); ("C001", None); ("V002", None);
      ("A003", None); ("Z999", None);
    ]

(* The baseline policy the CI census gates rely on, for every family:
   hard codes fail in any row, baseline or not; soft counts fail when
   they grow and pass when they fall; a row missing from the baseline
   fails only with a soft count; a baseline row missing from the census
   fails; fact codes are counted by [totals] and never diffed; and the
   wire format round-trips. *)
let test_census_gate_policy () =
  let module Census = Tb_analysis.Census in
  let row ?(model = "m") counts = { Census.model; schedule = "s"; counts } in
  List.iter
    (fun (f : Census.family) ->
      let what w = Printf.sprintf "%s: %s" f.Census.family_name w in
      let passes w ~baseline current =
        Alcotest.(check (list string))
          (what w) []
          (Census.diff ~family:f ~baseline current)
      in
      let fails w ~baseline current =
        check_bool (what w) true (Census.diff ~family:f ~baseline current <> [])
      in
      List.iter
        (fun c ->
          fails (c ^ " held in a baseline row") ~baseline:[ row [ (c, 1) ] ]
            [ row [ (c, 1) ] ];
          fails (c ^ " in a row missing from the baseline") ~baseline:[]
            [ row [ (c, 1) ] ])
        f.Census.hard;
      List.iter
        (fun c ->
          fails (c ^ " grown") ~baseline:[ row [ (c, 1) ] ] [ row [ (c, 2) ] ];
          passes (c ^ " fallen") ~baseline:[ row [ (c, 2) ] ] [ row [ (c, 1) ] ];
          fails (c ^ " in a row missing from the baseline") ~baseline:[]
            [ row [ (c, 1) ] ])
        f.Census.soft;
      let facts =
        List.filter
          (fun c -> not (List.mem c f.Census.hard || List.mem c f.Census.soft))
          f.Census.codes
      in
      List.iter
        (fun c ->
          passes (c ^ " grown (a fact)") ~baseline:[ row [] ] [ row [ (c, 5) ] ];
          passes (c ^ " in a row missing from the baseline (a fact)")
            ~baseline:[] [ row [ (c, 5) ] ])
        facts;
      passes "a clean row missing from the baseline" ~baseline:[] [ row [] ];
      fails "a baseline row missing from the census"
        ~baseline:[ row []; row ~model:"gone" [] ]
        [ row [] ];
      (* row_of_diags counts the family's codes in column order and drops
         zeros and foreign codes. *)
      let d code = D.warningf ~level:D.Lir ~code ~path:[] "finding" in
      let last = List.nth f.Census.codes (List.length f.Census.codes - 1) in
      let first = List.hd f.Census.codes in
      let counted =
        Census.row_of_diags ~family:f ~model:"m" ~schedule:"s"
          [ d last; d "S001"; d first; d last ]
      in
      Alcotest.(check (list (pair string int)))
        (what "row_of_diags") [ (first, 1); (last, 2) ] counted.Census.counts;
      (* totals sum every tracked code, facts included, in column order. *)
      let census =
        [
          row ~model:"a" (List.mapi (fun i c -> (c, i + 1)) f.Census.codes);
          row ~model:"b" [ (last, 10) ];
        ]
      in
      Alcotest.(check (list (pair string int)))
        (what "totals")
        (List.mapi
           (fun i c -> (c, i + 1 + if c = last then 10 else 0))
           f.Census.codes)
        (Census.totals ~family:f census);
      check_bool (what "JSON round trip") true
        (Census.of_json (Census.to_json census) = census))
    Census.all_families;
  (* The fact branch above must run: L014 is the lir family's proof fact. *)
  Alcotest.(check (list string))
    "lir facts" [ "L014" ]
    (List.filter
       (fun c ->
         not
           (List.mem c Census.lir_family.Census.hard
           || List.mem c Census.lir_family.Census.soft))
       Census.lir_family.Census.codes)

let suite =
  [
    quick "verified pipeline accepts the default schedule"
      test_passman_default_clean;
    quick "code registry unique + census family coverage"
      test_registry_codes_and_families;
    quick "census gate policy: diff, totals, row counts, JSON round trip"
      test_census_gate_policy;
    quick "verified pipeline == unverified lowering"
      test_passman_matches_unverified_lower;
    qcheck ~count:50 ~name:"pipeline lint-clean on random models x schedules"
      seed_gen pipeline_clean_property;
    qcheck ~count:50 ~name:"every walk program passes the bounds dataflow"
      seed_gen walk_programs_verify_property;
    quick "Table II grid lints clean" test_table2_grid_clean;
    quick "trained GBT model lints clean" test_trained_model_clean;
    quick "mutation: leaf inside a tile -> H003" test_mutated_tiling_leaf_in_tile;
    quick "mutation: unassigned internal -> H001"
      test_mutated_tiling_unassigned_internal;
    quick "mutation: disconnected tile -> H002"
      test_mutated_tiling_disconnected_tile;
    quick "mutation: non-maximal tiling -> H004" test_mutated_tiling_not_maximal;
    quick "mutation: corrupted LUT entry -> H010" test_mutated_lut_entry;
    quick "mutation: corrupted lane threshold -> H032 at tree/tile node"
      test_mutated_program_lane_threshold;
    quick "illegal schedule fields -> S00x" test_illegal_schedule_fields;
    quick "pass manager stops at an illegal schedule"
      test_passman_stops_at_bad_schedule;
    quick "pass manager runs one validate stage after lir:walks"
      test_passman_one_validate_stage;
    quick "mutation: duplicated group plan -> M001"
      test_mutated_mir_duplicated_group;
    quick "mutation: unrolled walk on non-uniform group -> M002"
      test_mutated_mir_unrolled_nonuniform;
    quick "mutation: over-deep peel -> M003" test_mutated_mir_overdeep_peel;
    quick "row partition: overlap -> M010, gap -> M011, real one clean"
      test_row_partition_overlap_and_gap;
    quick "mutation: constant out-of-bounds load -> L010"
      test_mutated_walk_constant_oob_load;
    quick "mutation: swapped registers -> L002/L001"
      test_mutated_walk_swapped_register;
    quick "mutation: dangling tree root -> L022" test_mutated_layout_bad_root;
    quick "mutation: dangling child pointer -> L020"
      test_mutated_layout_dangling_child_ptr;
    quick "mutation: leaf index out of store -> L023"
      test_mutated_layout_bad_leaf_index;
    quick "mutation: invalid LUT child -> L024" test_mutated_layout_bad_lut_row;
    quick "mutation: root child pointer off its tree -> L020"
      test_mutated_layout_root_child_ptr;
    quick "mutation: array leaf markers turned tiles -> L020"
      test_mutated_layout_array_leaf_tiles;
    quick "mutation: slab base past the slots -> L022"
      test_mutated_layout_slab_past_slots;
    qcheck ~count:300 ~name:"layout check total; clean layouts walk within slots + 1"
      seed_gen layout_check_total_property;
    quick "congruence domain algebra + tightening" test_congruence_domain;
    quick "relational analysis discharges sparse-loop L011"
      test_relational_discharges_sparse_l011;
    quick "jam per-lane analysis: lane-0 findings once + L014"
      test_jam_analysis_does_not_multiply_findings;
    quick "translation validation: Table II grid validates cleanly"
      test_validate_table2_clean;
    qcheck ~count:25
      ~name:"translation validation: clean + summaries tile feature space"
      seed_gen validate_clean_and_tiling_property;
    quick "translation validation: path counts stay linear in source leaves"
      test_validate_summary_shape;
  ]
