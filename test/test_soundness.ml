(* Soundness harness for the LIR walk-bounds analysis.

   The static analysis (Lir_check.analyze_program) claims, for every
   buffer a walk program touches, a hull of all indices the reporting
   pass can reach. The harness replays real executions against those
   claims: the Reg_ir interpreter is instrumented (Interp.compile ~trace)
   to log every concrete buffer access, and each logged index must lie
   inside the hull the analysis proved for that group's program. A
   concrete access outside the hull would be an unsoundness in the
   abstract domains (intervals, congruences, provenance), the kind of bug
   the census numbers cannot see.

   The seeded-mutation tests are the negative half: falsify the facts the
   relational analysis relies on (corrupt a child pointer so the layout's
   tile-advance range no longer bounds the walk; splice a cross-lane
   statement into a jammed program) and assert the corresponding
   diagnostic (L011 / L013) actually fires. Together they show the
   discharge is evidence-based, not unconditional. *)

open Helpers
module Prng = Tb_util.Prng
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule
module Program = Tb_hir.Program
module Tiled_tree = Tb_hir.Tiled_tree
module Mir = Tb_mir.Mir
module Validate = Tb_analysis.Validate
module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Reg_ir = Tb_lir.Reg_ir
module Reg_codegen = Tb_lir.Reg_codegen
module Interp = Tb_vm.Interp
module Lir_check = Tb_analysis.Lir_check
module Alias = Tb_analysis.Alias
module D = Tb_diag.Diagnostic

let grid = Array.of_list Schedule.table2_grid

let num_features = 6

let random_forest rng =
  Forest.random
    ~num_trees:(1 + Prng.int rng 10)
    ~max_depth:(2 + Prng.int rng 6)
    ~num_features rng

(* Every concrete access of every interpreted walk lies inside the hull
   the analysis proved for that group's program. *)
let soundness_property seed =
  let rng = Prng.create seed in
  let forest = random_forest rng in
  let schedule = grid.(Prng.int rng (Array.length grid)) in
  let rows = random_rows rng num_features (1 + Prng.int rng 20) in
  let lp = Lower.lower forest schedule in
  let env = Lir_check.env_of_layout ~num_features lp.Lower.layout in
  let hulls =
    List.map
      (fun (g, p) -> (g, snd (Lir_check.analyze_program env p)))
      (Reg_codegen.all_variants lp.Lower.layout lp.Lower.mir)
  in
  let violation = ref None in
  let trace ~group buffer idx =
    if !violation = None then
      match List.assoc_opt buffer (List.assoc group hulls) with
      | Some { Lir_check.lo; hi }
        when float_of_int idx >= lo && float_of_int idx <= hi -> ()
      | Some { Lir_check.lo; hi } ->
        violation :=
          Some
            (Printf.sprintf "group %d: %s access at %d outside proved hull \
                             [%g, %g]"
               group (Reg_ir.buffer_name buffer) idx lo hi)
      | None ->
        violation :=
          Some
            (Printf.sprintf
               "group %d: %s access at %d but the analysis recorded no fact \
                for that buffer"
               group (Reg_ir.buffer_name buffer) idx)
  in
  ignore (Interp.compile ~trace lp rows);
  match !violation with
  | None -> true
  | Some msg ->
    QCheck2.Test.fail_reportf "unsound under %s: %s"
      (Schedule.to_string schedule) msg

(* Deterministic version over the full grid on one forest, so every
   Table II point (both layouts, every interleave factor, peel/unroll)
   is replayed at least once per run. *)
let test_full_grid_replay () =
  let rng = Prng.create 7 in
  let forest = Forest.random ~num_trees:7 ~max_depth:6 ~num_features rng in
  let rows = random_rows rng num_features 8 in
  List.iter
    (fun schedule ->
      let lp = Lower.lower forest schedule in
      let env = Lir_check.env_of_layout ~num_features lp.Lower.layout in
      let hulls =
        List.map
          (fun (g, p) -> (g, snd (Lir_check.analyze_program env p)))
          (Reg_codegen.all_variants lp.Lower.layout lp.Lower.mir)
      in
      let trace ~group buffer idx =
        match List.assoc_opt buffer (List.assoc group hulls) with
        | Some { Lir_check.lo; hi }
          when float_of_int idx >= lo && float_of_int idx <= hi -> ()
        | Some { Lir_check.lo; hi } ->
          Alcotest.failf "%s: group %d %s at %d outside [%g, %g]"
            (Schedule.to_string schedule) group
            (Reg_ir.buffer_name buffer) idx lo hi
        | None ->
          Alcotest.failf "%s: group %d %s access with no recorded fact"
            (Schedule.to_string schedule) group (Reg_ir.buffer_name buffer)
      in
      ignore (Interp.compile ~trace lp rows))
    Schedule.table2_grid

(* ---------------- seeded mutations ---------------- *)

let sparse_schedule =
  {
    Schedule.default with
    Schedule.tile_size = 4;
    interleave = 1;
    pad_and_unroll = false;
    peel = false;
    layout = Schedule.Sparse_layout;
  }

let codes ds = List.map (fun d -> d.D.code) ds

(* The relational analysis discharges the sparse slot-indexed loads by
   pairing the cursor with the layout's measured child_ptr + lut-child
   advance range. Corrupting one child pointer past the slot extent must
   widen that range and bring the L011 back — the discharge depends on
   the measured facts, it is not unconditional. *)
let test_corrupted_child_ptr_revives_l011 () =
  let rng = Prng.create 11 in
  let forest = Forest.random ~num_trees:6 ~max_depth:5 ~num_features rng in
  let lp = Lower.lower forest sparse_schedule in
  let lay = lp.Lower.layout in
  let analyze () =
    let env = Lir_check.env_of_layout ~num_features lay in
    List.concat_map
      (fun (g, p) -> Lir_check.check_variant env ~variant:g p)
      (Reg_codegen.all_variants lay lp.Lower.mir)
  in
  let slot_warnings ds =
    List.length
      (List.filter
         (fun d -> d.D.code = "L011" || d.D.code = "L010")
         ds)
  in
  let intact = slot_warnings (analyze ()) in
  (* Pick a non-leaf slot and point it far past the slot arrays. *)
  let victim = ref (-1) in
  Array.iteri
    (fun i cp -> if !victim < 0 && cp >= 0 then victim := i)
    lay.Layout.child_ptr;
  Alcotest.(check bool) "forest has an internal sparse slot" true (!victim >= 0);
  let saved = lay.Layout.child_ptr.(!victim) in
  lay.Layout.child_ptr.(!victim) <- Array.length lay.Layout.shape_ids + 999;
  let mutated = slot_warnings (analyze ()) in
  lay.Layout.child_ptr.(!victim) <- saved;
  Alcotest.(check bool)
    (Printf.sprintf
       "corrupt child_ptr revives bounds warnings (%d intact -> %d mutated)"
       intact mutated)
    true
    (mutated > intact)

(* Splicing a statement that reads lane 1's registers into a jammed
   program must refute the lane partition: Alias.check and the full
   variant analysis both report L013, and the lanes-independent L014
   fact disappears. *)
let test_lane_collision_mutant_caught () =
  let rng = Prng.create 23 in
  let forest = Forest.random ~num_trees:8 ~max_depth:5 ~num_features rng in
  let schedule = { sparse_schedule with Schedule.interleave = 4 } in
  let lp = Lower.lower forest schedule in
  let lay = lp.Lower.layout in
  let env = Lir_check.env_of_layout ~num_features lay in
  let jammed =
    List.filter (fun (_, p) -> p.Reg_ir.lanes > 1)
      (Reg_codegen.jammed_variants lay lp.Lower.mir)
  in
  Alcotest.(check bool) "schedule produced jammed variants" true (jammed <> []);
  List.iter
    (fun (g, p) ->
      (* Intact: partition proved, L014 fact, no L013. *)
      let intact = Lir_check.check_variant env ~variant:g p in
      Alcotest.(check bool) "intact jam has no L013" false
        (List.mem "L013" (codes intact));
      Alcotest.(check bool) "intact jam proves lane independence (L014)" true
        (List.mem "L014" (codes intact));
      (* Mutant: lane 0 reads a lane-1 register. *)
      let w = Reg_ir.lane_width p in
      let mutant =
        { p with Reg_ir.body = p.Reg_ir.body @ [ Reg_ir.Iset (0, Reg_ir.Imov w) ] }
      in
      Alcotest.(check bool) "alias analysis refutes the mutant" true
        ((Alias.check mutant).Alias.diags <> []);
      let ds = Lir_check.check_variant env ~variant:g mutant in
      Alcotest.(check bool) "mutant reports L013" true
        (List.mem "L013" (codes ds));
      Alcotest.(check bool) "mutant loses the L014 fact" false
        (List.mem "L014" (codes ds)))
    jammed

(* ------------- seeded miscompiles vs the translation validator ------------- *)

(* The negative half of Tb_analysis.Validate: inject a concrete
   miscompile into one compiled form and require (a) the validator to
   reject it with a T004 finding carrying a witness row, and (b) the
   register-IR interpreter — an independent backend — to confirm the
   witness diverges from the source model's prediction. *)

let find_t004 fs = List.find_opt (fun f -> f.Validate.code = "T004") fs

(* The Reg_ir interpreter's verdict on one tree at one row. *)
let interp_tree (lp : Lower.t) tree row =
  let gi = ref (-1) in
  Array.iteri
    (fun g (plan : Mir.group_plan) ->
      if Array.exists (Int.equal tree) plan.Mir.group.Tb_hir.Reorder.positions
      then gi := g)
    lp.Lower.mir.Mir.group_plans;
  let prog =
    List.assoc !gi (Reg_codegen.all_variants lp.Lower.layout lp.Lower.mir)
  in
  Interp.run_walk prog lp ~tree ~row

let confirm_with_interp what (lp : Lower.t) (f : Validate.finding) =
  let row =
    match f.Validate.witness with
    | Some w -> w
    | None -> Alcotest.failf "%s: T004 finding carries no witness row" what
  in
  let tree = f.Validate.tree in
  let src =
    lp.Lower.hir.Program.forest.Forest.trees.(
      lp.Lower.hir.Program.trees.(tree).Program.original_index)
  in
  let want = Tree.predict src row in
  match interp_tree lp tree row with
  | exception _ -> ()  (* the corrupt form crashes outright: divergent *)
  | got ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: Interp diverges from the source at the witness" what)
      true
      (Float.compare got want <> 0)

(* (a) Flipped routing: swap the first two children of a tree's root
   tile — every row that took the left route now takes the right. *)
let test_miscompile_flipped_route () =
  let rng = Prng.create 31 in
  let forest = Forest.random ~num_trees:6 ~max_depth:5 ~num_features rng in
  let hir = Program.build forest Schedule.default in
  let found = ref false in
  Array.iter
    (fun (e : Program.tree_entry) ->
      if not !found then
        match e.Program.tiled.Tiled_tree.nodes.(0) with
        | Tiled_tree.Tile tile
          when (not (Tiled_tree.is_dummy tile))
               && Array.length tile.Tiled_tree.children >= 2 ->
          let c = tile.Tiled_tree.children in
          let swap () =
            let t0 = c.(0) in
            c.(0) <- c.(1);
            c.(1) <- t0
          in
          swap ();
          (match find_t004 (Validate.check_hir hir) with
          | Some f ->
            found := true;
            (* Lower the mutated HIR; the interpreter executes the
               miscompiled route and must diverge at the witness. *)
            let mir = Mir.lower hir in
            let lay = Layout.build hir in
            confirm_with_interp "flipped route" (Lower.assemble hir mir lay) f
          | None -> swap () (* twin subtrees; undo and try the next tree *))
        | _ -> ())
    hir.Program.trees;
  Alcotest.(check bool) "a flipped-route mutant was caught with T004" true
    !found

(* (b) Off-by-one child pointer in the sparse layout. *)
let test_miscompile_offby1_child_ptr () =
  let rng = Prng.create 37 in
  let forest = Forest.random ~num_trees:8 ~max_depth:6 ~num_features rng in
  let hir = Program.build forest sparse_schedule in
  let mir = Mir.lower hir in
  let lay = Layout.build hir in
  let found = ref false in
  Array.iteri
    (fun s cp ->
      if (not !found) && cp >= 0 then begin
        let cp' = Array.copy lay.Layout.child_ptr in
        cp'.(s) <- cp'.(s) + 1;
        let mutant = { lay with Layout.child_ptr = cp' } in
        match find_t004 (Validate.check_lir hir mir mutant) with
        | Some f ->
          found := true;
          confirm_with_interp "off-by-one child_ptr"
            (Lower.assemble hir mir mutant) f
        | None -> ()
      end)
    lay.Layout.child_ptr;
  Alcotest.(check bool) "an off-by-one child_ptr mutant was caught with T004"
    true !found

(* (c) Swapped LUT entries: two distinct exits of one child table trade
   places. Swaps between bit patterns no input can produce (padding
   lanes) are semantically neutral and must NOT fire — the loop skips
   them until a reachable pair is hit. *)
let test_miscompile_swapped_lut_entries () =
  let rng = Prng.create 41 in
  let forest = Forest.random ~num_trees:4 ~max_depth:5 ~num_features rng in
  let hir = Program.build forest Schedule.default in
  let mir = Mir.lower hir in
  let lay = Layout.build hir in
  let found = ref false in
  let attempts = ref 0 in
  Array.iteri
    (fun sid row ->
      for i = 0 to Array.length row - 1 do
        for j = i + 1 to Array.length row - 1 do
          if (not !found) && !attempts < 200 && row.(i) <> row.(j) then begin
            incr attempts;
            let lut' = Array.map Array.copy lay.Layout.lut in
            let r = lut'.(sid) in
            let t = r.(i) in
            r.(i) <- r.(j);
            r.(j) <- t;
            let mutant = { lay with Layout.lut = lut' } in
            match find_t004 (Validate.check_lir hir mir mutant) with
            | Some f ->
              found := true;
              confirm_with_interp "swapped LUT entries"
                (Lower.assemble hir mir mutant) f
            | None -> ()
          end
        done
      done)
    lay.Layout.lut;
  Alcotest.(check bool) "a swapped-LUT-entry mutant was caught with T004" true
    !found

(* (d) Wrong leaf constant in the sparse dense leaf store. *)
let test_miscompile_wrong_leaf_constant () =
  let rng = Prng.create 43 in
  let forest = Forest.random ~num_trees:6 ~max_depth:5 ~num_features rng in
  let hir = Program.build forest sparse_schedule in
  let mir = Mir.lower hir in
  let lay = Layout.build hir in
  let found = ref false in
  Array.iteri
    (fun idx v ->
      if not !found then begin
        let lv = Array.copy lay.Layout.leaf_values in
        lv.(idx) <- v +. 1.0;
        let mutant = { lay with Layout.leaf_values = lv } in
        match find_t004 (Validate.check_lir hir mir mutant) with
        | Some f ->
          found := true;
          confirm_with_interp "wrong leaf constant"
            (Lower.assemble hir mir mutant) f
        | None -> ()
      end)
    lay.Layout.leaf_values;
  Alcotest.(check bool) "a wrong-leaf-constant mutant was caught with T004" true
    !found

(* (e) One peel step too many: the peeled walk steps onto a leaf without
   a check. The MIR form gets stuck where its source tree has a leaf, and
   the witness's MIR replay breaks the walk contract. *)
let test_miscompile_overdeep_peel () =
  match cached_model "abalone" with
  | None -> print_endline "skipped: abalone is not in the model cache"
  | Some forest ->
    let schedule =
      { Schedule.default with Schedule.pad_and_unroll = false; peel = true }
    in
    let lp = Lower.lower forest schedule in
    let plans = Array.copy lp.Lower.mir.Mir.group_plans in
    let g, peel =
      match
        Array.find_mapi
          (fun g (p : Mir.group_plan) ->
            match p.Mir.walk with
            | Mir.Peeled_walk { peel } -> Some (g, peel)
            | _ -> None)
          plans
      with
      | Some found -> found
      | None -> Alcotest.fail "abalone lowered without a peeled walk"
    in
    let walk = Mir.Peeled_walk { peel = peel + 1 } in
    plans.(g) <- { (plans.(g)) with Mir.walk };
    let hir = lp.Lower.hir in
    let fs =
      Validate.check_mir hir { lp.Lower.mir with Mir.group_plans = plans }
    in
    check_bool "every finding is paired with the source" true
      (List.for_all
         (fun f -> f.Validate.pair = (Validate.Source, Validate.Mir))
         fs);
    match find_t004 fs with
    | None -> Alcotest.fail "an over-deep peel was not caught with T004"
    | Some f ->
      check_bool "the finding's tree runs the mutated walk" true
        (Array.mem f.Validate.tree
           plans.(g).Mir.group.Tb_hir.Reorder.positions);
      let row = Option.get f.Validate.witness in
      let tiled = hir.Program.trees.(f.Validate.tree).Program.tiled in
      (match Mir.walk_tree walk tiled row with
      | exception Mir.Walk_contract _ -> ()
      | v ->
        Alcotest.failf
          "MIR replay returned %g instead of breaking the walk contract" v)

(* (f) A wrong constant in the layout's leaf store: both forms that read
   it, the layout walk and the register program, diverge from the
   source; the HIR and MIR forms do not read it and stay clean. *)
let test_miscompile_layout_leaf_forms () =
  match cached_model "abalone" with
  | None -> print_endline "skipped: abalone is not in the model cache"
  | Some forest ->
    let lp = Lower.lower forest Schedule.default in
    let lay = lp.Lower.layout in
    let leaf_values = Array.copy lay.Layout.leaf_values in
    leaf_values.(0) <- leaf_values.(0) +. 1.0;
    let mutant = { lay with Layout.leaf_values } in
    let fs = Validate.check_all lp.Lower.hir lp.Lower.mir mutant in
    let codes stage =
      List.filter_map
        (fun f ->
          if f.Validate.pair = (Validate.Source, stage) then
            Some f.Validate.code
          else None)
        fs
    in
    let show stage = String.concat "," (codes stage) in
    check_string "hir findings" "" (show Validate.Hir);
    check_string "mir findings" "" (show Validate.Mir);
    check_string "lir findings" "T004" (show Validate.Lir);
    check_string "reg findings" "T004" (show Validate.Reg);
    check_int "no other findings" 2 (List.length fs);
    List.iter
      (fun f ->
        if f.Validate.pair = (Validate.Source, Validate.Reg) then
          confirm_with_interp "layout leaf constant"
            (Lower.assemble lp.Lower.hir lp.Lower.mir mutant) f)
      fs

(* ------------- one mutated entry against the form's evaluator ------------- *)

(* The validator clears a (tree, form) pair without a summary only when
   the form follows its source tree in lockstep. This property mutates
   one entry of one compiled form and asks the form's own evaluator:
   wherever it leaves the source tree bit for bit on a probe row, or
   raises, the validator must report that tree for that form. Lanes,
   leaves and LUT entries keep successors strictly past their slot, so
   no walk can loop. The unmutated compile gets no finding at all. *)
let mutant_property seed =
  let rng = Prng.create seed in
  let forest = random_forest rng in
  let schedule = grid.(Prng.int rng (Array.length grid)) in
  let lp = Lower.lower forest schedule in
  let hir = lp.Lower.hir and mir = lp.Lower.mir and lay = lp.Lower.layout in
  let unmutated = Validate.check_all hir mir lay in
  if unmutated <> [] then
    QCheck2.Test.fail_reportf "unmutated compile under %s has %d findings"
      (Schedule.to_string schedule) (List.length unmutated);
  let nt = lay.Layout.tile_size in
  let pick n = Prng.int rng n in
  let nudge v =
    if Float.is_finite v then v +. Prng.float rng 1.0 -. 0.5
    else Prng.float rng 2.0 -. 1.0
  in
  let slots kinds =
    List.filter kinds (List.init (Array.length lay.Layout.shape_ids) Fun.id)
  in
  let is_tile s = lay.Layout.shape_ids.(s) >= 0 in
  let one l = List.nth l (pick (List.length l)) in
  let set a i v =
    let a = Array.copy a in
    a.(i) <- v;
    a
  in
  (* The mutated forms, each with its findings and its evaluator. *)
  let what, forms =
    match pick 6 with
    | (0 | 1) as k ->
      let nodes =
        List.concat_map
          (fun (tree : Program.tree_entry) ->
            let t = tree.Program.tiled in
            List.filter_map
              (fun n ->
                match (k, t.Tiled_tree.nodes.(n)) with
                | 0, Tiled_tree.Tile tile -> Some (t, n, `Tile tile)
                | 1, Tiled_tree.Leaf v -> Some (t, n, `Leaf v)
                | _ -> None)
              (List.init (Array.length t.Tiled_tree.nodes) Fun.id))
          (Array.to_list hir.Program.trees)
      in
      let what =
        match one nodes with
        | t, n, `Tile tile ->
          let lane = pick nt in
          let thresholds =
            set tile.Tiled_tree.thresholds lane
              (nudge tile.Tiled_tree.thresholds.(lane))
          in
          t.Tiled_tree.nodes.(n) <- Tiled_tree.Tile { tile with thresholds };
          "hir lane threshold"
        | t, n, `Leaf v ->
          t.Tiled_tree.nodes.(n) <- Tiled_tree.Leaf (nudge v);
          "hir leaf"
      in
      ( what,
        [
          ( Validate.Hir,
            Validate.check_hir hir,
            fun tree row ->
              Tiled_tree.walk hir.Program.trees.(tree).Program.tiled row );
        ] )
    | k ->
      let what, mutant =
        match (k, lay.Layout.kind) with
        | 2, _ ->
          let i = (one (slots is_tile) * nt) + pick nt in
          ( "layout lane threshold",
            { lay with
              Layout.thresholds =
                set lay.Layout.thresholds i (nudge lay.Layout.thresholds.(i)) }
          )
        | 3, _ ->
          let i = (one (slots is_tile) * nt) + pick nt in
          ( "layout lane feature",
            { lay with
              Layout.features = set lay.Layout.features i (pick num_features) }
          )
        | 4, Layout.Array_kind ->
          let i = one (slots (fun s -> not (is_tile s))) * nt in
          ( "layout leaf",
            { lay with
              Layout.thresholds =
                set lay.Layout.thresholds i (nudge lay.Layout.thresholds.(i)) }
          )
        | 4, Layout.Sparse_kind ->
          let i = pick (Array.length lay.Layout.leaf_values) in
          ( "layout leaf",
            { lay with
              Layout.leaf_values =
                set lay.Layout.leaf_values i (nudge lay.Layout.leaf_values.(i))
            } )
        | _ ->
          let sid = pick (Array.length lay.Layout.lut) in
          let lut = Array.copy lay.Layout.lut in
          lut.(sid) <- set lut.(sid) (pick (1 lsl nt)) (pick (nt + 1));
          ("layout LUT entry", { lay with Layout.lut })
      in
      let lp' = Lower.assemble hir mir mutant in
      ( what,
        [
          ( Validate.Lir,
            Validate.check_lir hir mir mutant,
            fun tree row -> Layout.walk mutant ~tree row );
          ( Validate.Reg,
            Validate.check_reg hir mir mutant,
            interp_tree lp' );
        ] )
  in
  let rows = random_rows rng num_features 64 in
  List.iter
    (fun (stage, findings, eval) ->
      Array.iteri
        (fun tree (entry : Program.tree_entry) ->
          let src = forest.Forest.trees.(entry.Program.original_index) in
          let leaves row =
            match eval tree row with
            | v -> not (floats_same_bits v (Tree.predict src row))
            | exception _ -> true
          in
          let reported =
            List.exists
              (fun (f : Validate.finding) ->
                f.Validate.tree = tree
                && f.Validate.pair = (Validate.Source, stage))
              findings
          in
          if Array.exists leaves rows && not reported then
            QCheck2.Test.fail_reportf
              "%s under %s: tree %d's %s form leaves its source on a probe \
               row, with no finding"
              what (Schedule.to_string schedule) tree
              (Validate.stage_name stage))
        hir.Program.trees)
    forms;
  true

let suite =
  [
    qcheck ~count:150
      ~name:"concrete accesses inside proved hulls (random grid point)"
      seed_gen soundness_property;
    quick "full Table II grid replay against relational hulls"
      test_full_grid_replay;
    quick "corrupt child_ptr revives discharged L011"
      test_corrupted_child_ptr_revives_l011;
    quick "jam lane-collision mutant caught as L013"
      test_lane_collision_mutant_caught;
    quick "miscompile: flipped route -> T004 + Interp-confirmed witness"
      test_miscompile_flipped_route;
    quick "miscompile: off-by-one child_ptr -> T004 + Interp-confirmed witness"
      test_miscompile_offby1_child_ptr;
    quick "miscompile: swapped LUT entries -> T004 + Interp-confirmed witness"
      test_miscompile_swapped_lut_entries;
    quick "miscompile: wrong leaf constant -> T004 + Interp-confirmed witness"
      test_miscompile_wrong_leaf_constant;
    quick "miscompile: over-deep peel -> T004 (source, mir), walk contract"
      test_miscompile_overdeep_peel;
    quick "miscompile: layout leaf constant -> T004 on lir and reg only"
      test_miscompile_layout_leaf_forms;
    qcheck ~count:200
      ~name:"one mutated entry: a form that leaves its source gets a finding"
      seed_gen mutant_property;
  ]
