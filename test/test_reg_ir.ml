(* Register-level IR: verifier, printer, codegen and the interpreter
   backend's agreement with the closure JIT. *)

open Helpers
module Prng = Tb_util.Prng
module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule
module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Reg_ir = Tb_lir.Reg_ir
module Reg_codegen = Tb_lir.Reg_codegen
module Mir = Tb_mir.Mir
module Jit = Tb_vm.Jit
module Interp = Tb_vm.Interp

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- verifier --- *)

let dummy_program body =
  {
    Reg_ir.tile_size = 4;
    layout = Layout.Sparse_kind;
    body;
    num_iregs = 10;
    num_fregs = 1;
    num_vregs = 4;
    lanes = 1;
  }

let has_code c ds = List.exists (fun d -> d.Tb_diag.Diagnostic.code = c) ds

let test_verifier_accepts_codegen_output () =
  let rng = Prng.create 1 in
  let forest = Forest.random ~num_trees:8 ~max_depth:7 ~num_features:5 rng in
  List.iter
    (fun schedule ->
      let lp = Lower.lower forest schedule in
      List.iter
        (fun (_, p) ->
          match Reg_ir.check p with
          | [] -> ()
          | ds ->
            Alcotest.failf "codegen produced invalid IR: %s"
              (String.concat "; "
                 (List.map Tb_diag.Diagnostic.to_string ds)))
        (Reg_codegen.all_variants lp.Lower.layout lp.Lower.mir))
    [
      Schedule.scalar_baseline;
      Schedule.default;
      { Schedule.default with layout = Schedule.Array_layout };
      { Schedule.default with pad_and_unroll = false; peel = true };
    ]

let test_verifier_rejects_out_of_range () =
  let p = dummy_program [ Reg_ir.Iset (99, Reg_ir.Iconst 0) ] in
  check_bool "L001 reported" true (has_code "L001" (Reg_ir.check p))

let test_verifier_rejects_use_before_def () =
  let p = dummy_program [ Reg_ir.Iset (2, Reg_ir.Imov 5) ] in
  check_bool "L002 reported" true (has_code "L002" (Reg_ir.check p))

let test_verifier_rejects_lane_type_mismatch () =
  (* Gather expects an int-vector index; feed it a float vector. *)
  let p =
    dummy_program
      [
        Reg_ir.Iset (2, Reg_ir.Iconst 0);
        Reg_ir.Vset (0, Reg_ir.Vload_f (Reg_ir.Thresholds, 2));
        Reg_ir.Vset (1, Reg_ir.Gather (Reg_ir.Row, 0));
      ]
  in
  check_bool "L003 reported" true (has_code "L003" (Reg_ir.check p))

let test_verifier_if_join_is_intersection () =
  (* A register defined on only one branch may not be used after the If. *)
  let p =
    dummy_program
      [
        Reg_ir.Iset (2, Reg_ir.Iconst 1);
        Reg_ir.If (Reg_ir.Ige (2, 0), [ Reg_ir.Iset (3, Reg_ir.Iconst 7) ], []);
        Reg_ir.Iset (4, Reg_ir.Imov 3);
      ]
  in
  check_bool "L002 reported" true (has_code "L002" (Reg_ir.check p))

let test_verifier_accepts_both_branch_def () =
  let p =
    dummy_program
      [
        Reg_ir.Iset (2, Reg_ir.Iconst 1);
        Reg_ir.If
          ( Reg_ir.Ige (2, 0),
            [ Reg_ir.Iset (3, Reg_ir.Iconst 7) ],
            [ Reg_ir.Iset (3, Reg_ir.Iconst 8) ] );
        Reg_ir.Iset (4, Reg_ir.Imov 3);
        Reg_ir.Fset (Reg_ir.result_reg, Reg_ir.Fload (Reg_ir.Leaf_values, 4));
      ]
  in
  check_bool "accepted" true (Reg_ir.check p = [])

let test_verifier_rejects_int_load_from_float_buffer () =
  let p =
    dummy_program
      [
        Reg_ir.Iset (2, Reg_ir.Iconst 0);
        Reg_ir.Iset (3, Reg_ir.Iload (Reg_ir.Thresholds, 2));
        Reg_ir.Fset (Reg_ir.result_reg, Reg_ir.Fload (Reg_ir.Leaf_values, 2));
      ]
  in
  match Reg_ir.check p with
  | [ d ] ->
    check_string "code" "L003" d.Tb_diag.Diagnostic.code;
    check_bool "error" true (d.Tb_diag.Diagnostic.severity = Tb_diag.Diagnostic.Error)
  | ds -> Alcotest.failf "expected one L003, got %d findings" (List.length ds)

let test_verifier_warns_unset_result () =
  (* The walk sets its result on one branch only. *)
  let p =
    dummy_program
      [
        Reg_ir.Iset (2, Reg_ir.Iconst 0);
        Reg_ir.If
          ( Reg_ir.Ige (2, 0),
            [ Reg_ir.Fset (Reg_ir.result_reg, Reg_ir.Fload (Reg_ir.Leaf_values, 2)) ],
            [] );
      ]
  in
  match Reg_ir.check p with
  | [ d ] ->
    check_string "code" "L002" d.Tb_diag.Diagnostic.code;
    check_bool "warning" true
      (d.Tb_diag.Diagnostic.severity = Tb_diag.Diagnostic.Warning)
  | ds -> Alcotest.failf "expected one L002, got %d findings" (List.length ds)

(* --- unroll-and-jam --- *)

let test_jam_lanes_structure_and_projection () =
  let rng = Prng.create 11 in
  let forest = Forest.random ~num_trees:8 ~max_depth:6 ~num_features:5 rng in
  let lp =
    Lower.lower forest { Schedule.default with interleave = 4 }
  in
  let singles = Reg_codegen.all_variants lp.Lower.layout lp.Lower.mir in
  List.iter
    (fun (_, p) ->
      (* Identity at one lane. *)
      check_bool "lanes=1 is identity" true (Reg_codegen.jam_lanes p ~lanes:1 == p);
      let j = Reg_codegen.jam_lanes p ~lanes:4 in
      check_int "lanes recorded" 4 j.Reg_ir.lanes;
      check_int "ireg file widened" (4 * p.Reg_ir.num_iregs) j.Reg_ir.num_iregs;
      check_bool "jammed program verifies" true (Reg_ir.check j = []);
      check_bool "lane partition proved" true ((Tb_analysis.Alias.check j).diags = []);
      (* Every lane's projection is the single-lane program's body. *)
      for lane = 0 to 3 do
        let proj = Tb_analysis.Alias.project j ~lane in
        check_bool
          (Printf.sprintf "lane %d projects back" lane)
          true
          (proj.Reg_ir.body = p.Reg_ir.body)
      done;
      (* Re-jamming an already-jammed program is rejected. *)
      check_bool "double jam rejected" true
        (match Reg_codegen.jam_lanes j ~lanes:2 with
        | exception Invalid_argument _ -> true
        | _ -> false))
    singles

(* --- printer / op counting --- *)

let test_pp_contains_vector_mnemonics () =
  let rng = Prng.create 2 in
  let forest = Forest.random ~num_trees:4 ~max_depth:6 ~num_features:5 rng in
  let lp = Lower.lower forest Schedule.default in
  let s = Lower.dump lp in
  List.iter
    (fun sub -> check_bool sub true (contains s sub))
    [ "vload.f32"; "gather.row"; "vcmp.lt"; "movemask"; "load.LUT"; "walk(sparse" ]

let test_count_ops_expands_repeats () =
  let lay_kind_program depth =
    let rng = Prng.create 3 in
    let forest = Forest.random ~num_trees:4 ~max_depth:6 ~num_features:5 rng in
    let lp = Lower.lower forest Schedule.default in
    ignore depth;
    List.hd (Reg_codegen.all_variants lp.Lower.layout lp.Lower.mir) |> snd
  in
  let p = lay_kind_program 3 in
  check_bool "dynamic >= static" true
    (Reg_ir.count_ops p ~static:false >= Reg_ir.count_ops p ~static:true)

(* --- interpreter equivalence --- *)

let interp_equivalence_property seed =
  let rng = Prng.create seed in
  let forest =
    Forest.random ~num_trees:(2 + Prng.int rng 10) ~max_depth:7 ~num_features:6 rng
  in
  let schedule =
    {
      Schedule.scalar_baseline with
      tile_size = 1 + Prng.int rng 8;
      loop_order =
        (if Prng.bool rng then Schedule.One_tree_at_a_time
         else Schedule.One_row_at_a_time);
      pad_and_unroll = Prng.bool rng;
      peel = Prng.bool rng;
      interleave = 1 lsl Prng.int rng 3;
      layout = (if Prng.bool rng then Schedule.Sparse_layout else Schedule.Array_layout);
    }
  in
  let lp = Lower.lower forest schedule in
  let rows = random_rows rng 6 24 in
  let jit = jit lp rows in
  let interp = Interp.compile lp rows in
  (Array.for_all2
     (fun a b -> Array.for_all2 Float.equal a b)
     jit interp)
  || QCheck2.Test.fail_reportf "interpreter diverges from JIT: %s"
       (Schedule.to_string schedule)

let test_interp_matches_reference_on_multiclass () =
  let rng = Prng.create 4 in
  let trees =
    Array.init 9 (fun _ -> Tb_model.Tree.random ~max_depth:5 ~num_features:4 rng)
  in
  let forest = Forest.make ~task:(Forest.Multiclass 3) ~num_features:4 trees in
  let rows = random_rows rng 4 20 in
  let lp = Lower.lower forest Schedule.default in
  let out = Interp.compile lp rows in
  check_bool "multiclass" true
    (Array.for_all2 arrays_close out (Forest.predict_batch_raw forest rows))

let test_run_walk_single () =
  let rng = Prng.create 5 in
  let forest = Forest.random ~num_trees:3 ~max_depth:6 ~num_features:5 rng in
  let lp = Lower.lower forest Schedule.default in
  let variants = Reg_codegen.all_variants lp.Lower.layout lp.Lower.mir in
  let row = random_row rng 5 in
  (* Walk tree 0 through the program of its group. *)
  let plans = lp.Lower.mir.Tb_mir.Mir.group_plans in
  Array.iteri
    (fun gi (plan : Tb_mir.Mir.group_plan) ->
      Array.iter
        (fun tree ->
          let p = List.assoc gi variants in
          let got = Interp.run_walk p lp ~tree ~row in
          let want = Layout.walk lp.Lower.layout ~tree row in
          check_float (Printf.sprintf "tree %d" tree) want got)
        plan.Tb_mir.Mir.group.Tb_hir.Reorder.positions)
    plans

let test_constant_tree_program () =
  let forest =
    Forest.make ~task:Forest.Regression ~num_features:1 [| Tb_model.Tree.Leaf 6.5 |]
  in
  let lp = Lower.lower forest Schedule.default in
  let out = Interp.compile lp [| [| 0.0 |] |] in
  check_float "constant" 6.5 out.(0).(0)

let suite =
  [
    quick "verifier accepts codegen output" test_verifier_accepts_codegen_output;
    quick "verifier rejects out-of-range reg" test_verifier_rejects_out_of_range;
    quick "verifier rejects use-before-def" test_verifier_rejects_use_before_def;
    quick "verifier rejects lane mismatch" test_verifier_rejects_lane_type_mismatch;
    quick "verifier If join is intersection" test_verifier_if_join_is_intersection;
    quick "verifier accepts both-branch def" test_verifier_accepts_both_branch_def;
    quick "verifier rejects int load from float buffer"
      test_verifier_rejects_int_load_from_float_buffer;
    quick "verifier warns on unset result" test_verifier_warns_unset_result;
    quick "jam_lanes structure and projection" test_jam_lanes_structure_and_projection;
    quick "printer shows vector mnemonics" test_pp_contains_vector_mnemonics;
    quick "count_ops expands repeats" test_count_ops_expands_repeats;
    qcheck ~count:150 ~name:"interpreter == JIT (bitwise)" seed_gen
      interp_equivalence_property;
    quick "interpreter multiclass == reference" test_interp_matches_reference_on_multiclass;
    quick "run_walk single pair" test_run_walk_single;
    quick "constant tree program" test_constant_tree_program;
  ]
