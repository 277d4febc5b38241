module Program = Tb_hir.Program
module Schedule = Tb_hir.Schedule
module Forest = Tb_model.Forest
module Mir = Tb_mir.Mir

type t = {
  hir : Program.t;
  mir : Mir.t;
  layout : Layout.t;
  num_outputs : int;
  base_score : float;
  tree_class : int array;
  walk_depth : int array;
}

let assemble ?quant (hir : Program.t) mir layout =
  let forest = hir.Program.forest in
  let layout =
    match quant with None -> layout | Some q -> Layout.quantize q layout
  in
  {
    hir;
    mir;
    layout;
    num_outputs = Forest.num_outputs forest;
    base_score = forest.Forest.base_score;
    tree_class =
      Array.map
        (fun e -> Forest.class_of_tree forest e.Program.original_index)
        hir.Program.trees;
    walk_depth =
      Array.map (fun e -> Tb_hir.Tiled_tree.depth e.Program.tiled) hir.Program.trees;
  }

let lower ?profiles ?quant forest schedule =
  let hir = Program.build ?profiles forest schedule in
  assemble ?quant hir (Mir.lower hir) (Layout.build hir)

let reference_predict t row =
  let out = Array.make t.num_outputs t.base_score in
  for tree = 0 to t.layout.Layout.num_trees - 1 do
    let cls = t.tree_class.(tree) in
    out.(cls) <- out.(cls) +. Layout.walk t.layout ~tree row
  done;
  out

(* End-to-end integer fast path over the quantized layout buffers: the
   semantics the quantized JIT must reproduce and the form the
   differential tests pin against [Tb_analysis.Numeric.qpredict_raw].
   Accumulation is exact (integer-valued floats below the certified
   accumulator bound), so tree order cannot change the result. *)
let reference_qpredict t row =
  match t.layout.Layout.quant with
  | None -> invalid_arg "Lower.reference_qpredict: layout is not quantized"
  | Some q ->
    let qrow = Layout.quantize_row q row in
    let out = Array.make t.num_outputs (Layout.quantize_leaf q t.base_score) in
    for tree = 0 to t.layout.Layout.num_trees - 1 do
      let cls = t.tree_class.(tree) in
      out.(cls) <- out.(cls) +. Layout.walk t.layout ~tree qrow
    done;
    let scale = Layout.dequant_scale q in
    Array.map (fun acc -> acc *. scale) out

let dump t =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  let schedule = t.hir.Program.schedule in
  Format.fprintf fmt "== schedule ==@.%s@.@." (Schedule.to_string schedule);
  Format.fprintf fmt "== MIR loop nest ==@.%s@." (Mir.to_string t.mir);
  Format.fprintf fmt "== LIR walk body ==@.%a@."
    (fun fmt () ->
      Ops.pp_walk_listing fmt ~layout:t.layout.Layout.kind
        ~tile_size:t.layout.Layout.tile_size ())
    ();
  Format.fprintf fmt "== register IR (per walk variant) ==@.";
  List.iter
    (fun (g, p) ->
      Format.fprintf fmt "-- group %d --@.%s@." g (Reg_ir.to_string p))
    (Reg_codegen.all_variants t.layout t.mir);
  Format.fprintf fmt "== layout ==@.kind: %s@.slots: %d@.model bytes: %d@.LUT shapes: %d@."
    (match t.layout.Layout.kind with
    | Layout.Array_kind -> "array"
    | Layout.Sparse_kind -> "sparse")
    (Layout.num_slots t.layout)
    (Layout.memory_bytes t.layout)
    (Array.length t.layout.Layout.lut);
  Format.pp_print_flush fmt ();
  Buffer.contents buf
