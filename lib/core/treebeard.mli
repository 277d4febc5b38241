(** TREEBEARD — an optimizing compiler for decision-tree ensemble inference.

    This is the library's public entry point. {!make} takes an ensemble
    source (an in-memory forest or a serialized model file) and a
    compilation plan (an explicit {!Tb_hir.Schedule.t} or the {!Explore}
    autotuner aimed at a CPU target), runs the full pipeline — tiling,
    padding and reordering on the high-level IR; loop ordering, walk
    interleaving, peeling/unrolling and parallelization on the mid-level
    IR; layout selection and vectorized walk lowering on the low-level IR
    — and returns a batch inference function ([predictForest] in the
    paper).

    {[
      (* explicit schedule, model file on disk *)
      let compiled = Treebeard.make (`File "model.json") in
      let predictions = Treebeard.predict_forest compiled rows in

      (* autotuned for a CPU target, in-memory forest *)
      let tuned =
        Treebeard.make ~plan:(`Auto Tb_cpu.Config.intel_rocket_lake)
          ~training_rows (`Forest forest)
      in
      ...
    ]}

    Use {!Explore} directly for visibility into the autotuner's search,
    and {!Perf} for simulated performance estimates and stall
    breakdowns. *)

type quant_request = { bits : [ `I8 | `I16 ]; tolerance : float }
(** A request for the integer fast path: quantized value width and the
    output-deviation tolerance the certificate must prove. *)

type precision = [ `Float | `Quantized of quant_request ]
(** The requested precision tier. [`Quantized] is a {e request}: the
    model is certified first ({!Tb_analysis.Numeric.certify}) and the
    compile falls back to [`Float] — with an [N005] info diagnostic —
    when N001/N003/N004 findings refute the plan. N002 (threshold
    collisions) does not refute: rows inside a dead zone
    ({!Tb_analysis.Numeric.dead_zone_row}) may route differently from
    the float path, which the quantized tier permits by contract. *)

type tier = Passman.tier
(** The precision tier a compile actually resolved to. *)

val tier_to_string : tier -> string
(** ["float"] / ["int8"] / ["int16"]. *)

val precision_to_string : precision -> string
(** The requested tier's name (tolerance is not rendered). *)

val precision_of_string : string -> (precision, string) result
(** ["float"]/["int8"]/["int16"]; quantized tiers get
    {!Tb_analysis.Numeric.default_tolerance} — the CLI's [--precision]
    parser. *)

type resolution = Passman.resolution =
  | Float_tier of Tb_diag.Diagnostic.t list
      (** float path; the diagnostics explain a quantized-request
          fallback ([[]] when float was requested) *)
  | Quant_tier of Tb_analysis.Numeric.certificate

val resolve_precision :
  ?precision:precision -> Tb_model.Forest.t -> resolution
(** The certification gate {!make} runs before {!Passman.run}, exposed
    for hosts (the serving registry) that cache the certificate per
    model. *)

val qspec_of_plan : Tb_analysis.Numeric.plan -> Tb_lir.Layout.qspec
(** {!Passman.qspec_of_plan}. *)

val tune_resident_k :
  target:Tb_cpu.Config.t -> Tb_lir.Lower.t -> float array array -> int
(** Always 0: the [resident_k] every quantized compile records
    ({!Tb_lir.Pack.quant}), a field instantiate ignores. Kept with its
    signature for existing callers that time it as a compile stage. *)

type t = Passman.compiled = {
  forest : Tb_model.Forest.t;
  schedule : Tb_hir.Schedule.t;
  lowered : Tb_lir.Lower.t;
  artifact : Tb_lir.Pack.t;
  predict : float array array -> float array array;
  tier : tier;
  certificate : Tb_analysis.Numeric.certificate option;
  precision_diags : Tb_diag.Diagnostic.t list;
}
(** A compiled model — {!Passman.compiled}, where the fields are
    documented. *)

val make :
  ?plan:[ `Schedule of Tb_hir.Schedule.t | `Auto of Tb_cpu.Config.t ] ->
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  ?training_rows:float array array ->
  ?backend:[ `Threaded | `Single_thread ] ->
  ?precision:precision ->
  [ `Forest of Tb_model.Forest.t | `File of string ] ->
  t
(** The one compilation entry point: resolve the plan and the precision,
    then run {!Passman.run} without verification.

    - [source]: [`Forest f] compiles an in-memory ensemble; [`File path]
      deserializes one first (see {!Tb_model.Serialize}).
    - [plan]: [`Schedule s] compiles exactly [s] (default
      {!Tb_hir.Schedule.default}); [`Auto target] runs the {!Explore}
      greedy autotuner for the given CPU and compiles its champion. The
      autotuner ranks candidate schedules with the simulated cost model
      ({!Perf.simulate}); it does not time them.
    - [profiles]: leaf-probability estimates enabling probability-based
      tiling. When omitted but [training_rows] is given, profiles are
      derived from those rows ({!Tb_model.Model_stats.profile_forest}).
    - [training_rows]: representative input rows. Besides profiling,
      [`Auto] simulates candidate schedules on them (a synthetic
      Gaussian probe batch is used when absent).
    - [backend]: [`Single_thread] clamps the schedule's row-loop
      parallelism to one thread ({!Tb_hir.Schedule.clamp_threads}), so
      the predictor runs on the calling domain — for hosts like the
      serving runtime whose workers each own a core. Default [`Threaded]
      keeps the schedule's own [num_threads].
    - [precision]: [`Quantized r] compiles the integer fast path when the
      model certifies clean at [r.bits]/[r.tolerance] — layout buffers
      rewritten to the certified fixed-point integers, predictions
      bitwise-equal to {!Tb_analysis.Numeric.qpredict_raw}. The model
      is lowered once, and the quantized stage pair
      ({!Tb_analysis.Validate.check_quant}) runs on that lowering; any
      finding degrades to [`Float] with the findings in
      [precision_diags]. Default [`Float]. *)

val predict_forest : t -> float array array -> float array array
(** Batch inference: one raw margin vector per row. Feature values must be
    finite when the schedule enables padding + unrolling (see
    {!Tb_hir.Tiled_tree.create}). *)

val predict_one : t -> float array -> float array

val dump_ir : t -> string
(** The compiled program's IR dump (schedule, MIR loop nest, LIR walk,
    layout stats). *)
