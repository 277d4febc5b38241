(** The full compilation pipeline below the model level: HIR → MIR → LIR.

    The result bundles everything a backend needs: the laid-out model
    buffers, the loop-nest plan, per-tree aggregation classes and the walk
    op templates. {!Tb_vm.Jit} turns it into executable code;
    {!Tb_vm.Profiler} executes it while counting events. *)

type t = {
  hir : Tb_hir.Program.t;
  mir : Tb_mir.Mir.t;
  layout : Layout.t;
  num_outputs : int;
  base_score : float;
  tree_class : int array;
      (** per layout tree index (= reordered position): output class its
          prediction accumulates into *)
  walk_depth : int array;  (** per tree: max tiled walk depth *)
}

val lower :
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  ?quant:Layout.qspec ->
  Tb_model.Forest.t ->
  Tb_hir.Schedule.t ->
  t
(** Run the whole pipeline on a model. With [?quant], the layout buffers
    are rewritten to the plan's fixed-point integers
    ({!Layout.quantize}) — the integer fast path's program form. *)

val assemble :
  ?quant:Layout.qspec -> Tb_hir.Program.t -> Tb_mir.Mir.t -> Layout.t -> t
(** Bundle already-lowered stages into a backend-ready program — used by
    {!Tb_core.Passman}, which runs the MIR passes one at a time with
    verification between them instead of calling {!Tb_mir.Mir.lower}.
    [?quant] quantizes the supplied (float) layout first. *)

val reference_predict : t -> float array -> float array
(** Predict by walking the layout directly (no backend) — must equal
    {!Tb_model.Forest.predict_raw}; the anchor for backend tests. *)

val reference_qpredict : t -> float array -> float array
(** The quantized analogue over a quantized layout: quantize the row,
    accumulate the integer-valued walk results from the certified base
    score, dequantize exactly. Must equal
    [Tb_analysis.Numeric.qpredict_raw] bit for bit; the anchor for the
    quantized backend tests. @raise Invalid_argument on a float layout. *)

val dump : t -> string
(** Human-readable dump: schedule, MIR loop nest, walk listing, the
    verified register IR of every walk variant, and layout statistics
    (the CLI's [compile] subcommand prints this). *)
