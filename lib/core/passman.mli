(** The compile pipeline: the one place that runs
    lower → (verify) → pack → instantiate. {!Treebeard.make}, {!compile}
    and the serving registry all call {!run}.

    Every stage runs its pass, then (under [Verify_each]) the
    {!Tb_analysis} verifier for it, and records its wall time, so a fault
    is caught {e at the pass that introduced it} rather than as a wrong
    prediction at inference time. Stages, in order: [schedule]
    (legality), [hir] (tiling / LUT / padding / groups), [mir:lower],
    [mir:specialize], [mir:interleave], [mir:parallelize] (loop-nest
    well-formedness and the row-partition race proof after every MIR
    pass), [lir:layout] (buffer closure), [lir:walks] (interval dataflow
    over every walk variant), [validate] (translation validation of
    every compiled form — HIR tiles, MIR walk kinds, layout buffers,
    register-IR walk programs — against its source tree, in one pass),
    [lir:assemble]; then, in {!run}, [validate:quant] (quantized tier
    only), [pack] and [instantiate]. Both validation stages refute any
    divergence with a concrete witness row (the T00x family); a
    [validate] finding's pair names the form that diverged.

    Compilation fails — [Error report] — at the first stage with an
    [Error]-severity diagnostic; warnings and infos are carried
    through. *)

type mode =
  | No_verify  (** skip the checks; every stage still runs and is timed *)
  | Verify_each  (** verify after every pass (the tbcheck pipeline) *)

type stage_report = {
  stage : string;
  diagnostics : Tb_diag.Diagnostic.t list;
  wall_s : float;  (** seconds spent in the stage's pass and check *)
}

type report = { mode : mode; stages : stage_report list }

val diagnostics : report -> Tb_diag.Diagnostic.t list
(** All findings, in stage order. *)

val ok : report -> bool
(** No [Error]-severity finding in any stage. *)

val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string

type tier = [ `Float | `Int8 | `Int16 ]
(** The precision tier a compile actually resolved to. *)

type resolution =
  | Float_tier of Tb_diag.Diagnostic.t list
      (** float path; the diagnostics explain a quantized-request
          fallback ([[]] when float was requested) *)
  | Quant_tier of Tb_analysis.Numeric.certificate
(** The certification gate's outcome ({!Treebeard.resolve_precision}). *)

val tier_of_resolution : resolution -> tier

type compiled = {
  forest : Tb_model.Forest.t;
  schedule : Tb_hir.Schedule.t;
  lowered : Tb_lir.Lower.t;
  artifact : Tb_lir.Pack.t;  (** the pack [predict] was instantiated from *)
  predict : float array array -> float array array;
  tier : tier;  (** resolved precision tier *)
  certificate : Tb_analysis.Numeric.certificate option;
      (** present iff [tier] is quantized *)
  precision_diags : Tb_diag.Diagnostic.t list;
      (** fallback diagnostics when a quantized request resolved to
          [`Float]; [[]] otherwise *)
}

val qspec_of_plan : Tb_analysis.Numeric.plan -> Tb_lir.Layout.qspec
(** The layout-level quantization spec of a certified plan. *)

val lower :
  ?mode:mode ->
  ?batch_size:int ->
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  Tb_model.Forest.t ->
  Tb_hir.Schedule.t ->
  (Tb_lir.Lower.t * report, report) result
(** The stages through [lir:assemble]. [batch_size] (default 1024)
    parameterizes the deployment-dependent checks. Defaults to
    [Verify_each]; under [No_verify] the result is always [Ok]. *)

val run :
  mode:mode ->
  ?batch_size:int ->
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  target:Tb_cpu.Config.t ->
  resolution ->
  Tb_model.Forest.t ->
  Tb_hir.Schedule.t ->
  (compiled * report, report) result
(** The whole pipeline. On [Quant_tier] the model is lowered once with
    the plan's quantized layout and {!Tb_analysis.Validate.check_quant}
    checks that lowering in every [mode]; a finding re-assembles the
    float program from the same stages, with the findings in
    [precision_diags]. A quantized pack records [resident_k = 0]
    ({!Tb_lir.Pack.quant}). [target] names the pack's metadata. The
    predictor is {!Tb_vm.Jit.instantiate}, which runs the schedule's
    [num_threads]. Under [No_verify] the result is always [Ok]. *)

val compile :
  ?mode:mode ->
  ?batch_size:int ->
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  ?schedule:Tb_hir.Schedule.t ->
  Tb_model.Forest.t ->
  (compiled * report, report) result
(** {!run} on the float tier — the verified counterpart of
    {!Treebeard.make}. Defaults to [Verify_each]. *)
