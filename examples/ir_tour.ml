(* A tour of the compilation pipeline: watch one small model descend
   through every IR level (paper Fig. 2).

   Run with: dune exec examples/ir_tour.exe *)

module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule

let section title =
  Printf.printf "\n=== %s ===\n" title

let () =
  (* A tiny 3-tree model, like the paper's running example. *)
  let node f t l r = Tree.Node { feature = f; threshold = t; left = l; right = r } in
  let leaf v = Tree.Leaf v in
  let tree1 = node 0 0.5 (leaf 0.1) (node 1 0.3 (leaf 0.2) (leaf 0.3)) in
  let tree2 =
    node 2 0.1 (node 0 0.9 (leaf 0.4) (leaf 0.5)) (node 1 0.7 (leaf 0.6) (node 2 0.8 (leaf 0.7) (leaf 0.8)))
  in
  let tree3 = node 1 0.4 (leaf 0.9) (node 2 0.6 (leaf 1.0) (leaf 1.1)) in
  let forest = Forest.make ~task:Forest.Regression ~num_features:3 [| tree1; tree2; tree3 |] in

  section "input model (3 binary trees)";
  Array.iteri
    (fun i t -> Format.printf "Tree%d:@.%a@." (i + 1) Tree.pp t)
    forest.Forest.trees;

  (* HIR: tile with size 2, pad, reorder. *)
  let schedule =
    { Schedule.default with tile_size = 2; interleave = 2; layout = Schedule.Sparse_layout }
  in
  let hir = Tb_hir.Program.build forest schedule in
  section "HIR: tiled, padded, reordered trees";
  Array.iteri
    (fun pos (entry : Tb_hir.Program.tree_entry) ->
      let t = entry.Tb_hir.Program.tiled in
      Printf.printf
        "position %d (source tree %d): %d tiles, walk depth %d, uniform=%b\n" pos
        (entry.Tb_hir.Program.original_index + 1)
        (Tb_hir.Tiled_tree.num_tiles t)
        (Tb_hir.Tiled_tree.depth t)
        (Tb_hir.Tiled_tree.is_uniform_depth t))
    hir.Tb_hir.Program.trees;
  Printf.printf "code-sharing groups: %d (trees of equal depth share a walk body)\n"
    (List.length hir.Tb_hir.Program.groups);
  Printf.printf "LUT: %d interned tile shapes x %d entries\n"
    (Tb_hir.Lut.num_shapes hir.Tb_hir.Program.lut)
    (1 lsl schedule.Schedule.tile_size);

  (* MIR + LIR + register IR. *)
  let lowered =
    Tb_lir.Lower.assemble hir (Tb_mir.Mir.lower hir) (Tb_lir.Layout.build hir)
  in
  section "MIR loop nest, LIR walk and register IR";
  print_string (Tb_lir.Lower.dump lowered);

  (* Execute on both backends. *)
  section "execution (closure JIT vs register-IR interpreter vs reference)";
  let rows = [| [| 0.2; 0.5; 0.05 |]; [| 0.7; 0.2; 0.9 |]; [| 0.4; 0.4; 0.4 |] |] in
  let jit = Tb_vm.Jit.instantiate (Tb_lir.Pack.of_lower lowered) rows in
  let interp = Tb_vm.Interp.compile lowered rows in
  let reference = Forest.predict_batch_raw forest rows in
  Array.iteri
    (fun i row ->
      Printf.printf "row %d %-20s jit=%.3f interp=%.3f reference=%.3f\n" i
        (Printf.sprintf "[%.1f;%.1f;%.2f]" row.(0) row.(1) row.(2))
        jit.(i).(0) interp.(i).(0) reference.(i).(0))
    rows
