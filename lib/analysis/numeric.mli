(** Static value-range and quantization certification over forests
    (the N00x family).

    Two ROADMAP items — the integer-only fast path (InTreeger-style
    quantized thresholds/leaves) and early-exit traversal (stop scoring a
    row once the remaining trees cannot change the decision) — need the
    same capability: sound static bounds on what a forest can compute.
    This module provides both halves, in the style of the repo's other
    verifiers ({!Lir_check}, {!Validate}): everything it claims is either
    proved by interval arithmetic over the model or reported as an N00x
    finding, and [test/test_numeric.ml] replays concrete quantized
    executions against every proved bound.

    {2 Value-range summary}

    {!summarize} computes, per feature, a threshold census (occurrence
    and distinct counts, range, minimum adjacent gap — the quantities
    per-feature scale derivation needs) and, per tree, the reachable
    leaf-value interval; per class, the reachable leaf-sum interval
    including [base_score].

    {2 Per-prefix partial-sum tables}

    {!prefix_bounds} is the data structure the future early-exit MIR pass
    consumes: for a given tree evaluation order, the min/max contribution
    of every suffix. After evaluating the first [k] trees of
    [order] with per-class partial sums [p_c] (initialized to
    [base_score]), the final raw margin of class [c] lies in
    [p_c + suffix_lo.(c).(k), p_c + suffix_hi.(c).(k)] — so traversal can
    stop as soon as the margin/tolerance decision is invariant over those
    intervals.

    {2 Quantization certificates}

    {!certify} derives per-feature power-of-two scales for a target
    integer width (int8/int16) and statically proves — or refutes with
    N001–N004 findings — that integer-only inference is safe:

    - thresholds on feature [f] are scaled by [2^e_f] with [e_f] the
      largest exponent whose scaled threshold range fits the width, so a
      scaled threshold never overflows by construction;
    - leaves and [base_score] share the largest power-of-two scale
      [2^leaf_exp] that fits the width; class accumulation happens in a
      doubled-width register (int16 for int8, int32 for int16), and
      [N001] fires when the worst-case running accumulator magnitude can
      exceed it (or a model constant is non-finite / needs an exponent
      outside the supported range);
    - [N002] fires per feature whose distinct thresholds collide after
      scaling (rows in the dead zone between two collided thresholds can
      be routed differently by the integer path);
    - [N003] fires per class whose proved worst-case dequantized-output
      deviation {!certificate.dev_bound} exceeds the tolerance;
    - [N004] fires (classification only) when some class pair's
      reachable margin interval comes within the combined deviation
      bound of the decision boundary — quantization alone, with routing
      unchanged, could flip the predicted class. Rows inside a rounding
      dead zone ({!dead_zone_row}) are outside this certificate; the
      soundness harness checks them separately.

    All findings are [Warning] severity: they refute the quantization
    certificate, not the float pipeline. *)

type interval = { lo : float; hi : float }

type feature_census = {
  feature : int;
  occurrences : int;  (** internal nodes comparing this feature *)
  distinct : int;  (** distinct threshold values *)
  range : interval;
      (** threshold min/max; [{lo = infinity; hi = neg_infinity}] when
          the feature is unused *)
  min_gap : float;
      (** smallest gap between adjacent distinct thresholds; [infinity]
          when fewer than two *)
}

type summary = {
  forest_name : string;
  num_classes : int;
  features : feature_census array;  (** indexed by feature *)
  tree_values : interval array;  (** per tree: reachable leaf interval *)
  class_bounds : interval array;
      (** per class: reachable raw-margin interval, [base_score]
          included *)
}

val summarize : Tb_model.Forest.t -> summary

type prefix_table = {
  order : int array;  (** tree evaluation order (a permutation) *)
  suffix_lo : float array array;
  suffix_hi : float array array;
      (** [suffix_lo.(c).(k)] / [suffix_hi.(c).(k)] bound the summed
          contribution of trees [order.(k) .. order.(n-1)] to class [c];
          both have length [n + 1] per class, with entry [n] = 0. *)
}

val prefix_bounds : ?order:int array -> Tb_model.Forest.t -> prefix_table
(** Per-prefix partial-sum bound table for [order] (default: the forest's
    own tree order). @raise Invalid_argument if [order] is not a
    permutation of the tree indices. *)

val suffix_interval : prefix_table -> cls:int -> prefix:int -> interval
(** The [[suffix_lo; suffix_hi]] pair as an interval. *)

(** {2 Quantization} *)

type width = I8 | I16

val bits : width -> int

val width_to_string : width -> string
(** ["int8"] / ["int16"]. *)

val width_of_string : string -> (width, string) result
(** Accepts ["int8"]/["int16"]/["8"]/["16"]. *)

type plan = {
  width : width;
  q_max : int;  (** [2^(bits-1) - 1]: scaled threshold/leaf magnitude cap *)
  acc_max : int;  (** [2^(2*bits-1) - 1]: doubled-width accumulator cap *)
  feature_exp : int option array;
      (** per feature: [Some e] scales feature [f] and its thresholds by
          [2^e]; [None] for unused features *)
  leaf_exp : int;  (** leaves and [base_score] are scaled by [2^leaf_exp] *)
  tolerance : float;
}

type collision = {
  c_feature : int;
  pairs : int;  (** adjacent distinct threshold pairs that collided *)
  widest_gap : float;  (** widest dead zone among the collided pairs *)
}

type certificate = {
  plan : plan;
  summary : summary;
  dev_bound : float array;
      (** per class: proved worst-case |dequantized − float reference|
          over rows whose routing is unchanged by quantization *)
  acc_bound : int array;
      (** per class: proved worst-case running-accumulator magnitude in
          quantized units (any evaluation order) *)
  collisions : collision list;
  ambiguous_pairs : int;
      (** class pairs (or the sign boundary, for binary) whose margin
          interval overlaps the deviation band — the N004 count *)
  findings : Tb_diag.Diagnostic.t list;  (** N001..N004, [Warning] level *)
}

val default_tolerance : float
(** 1e-3 — the default [--tolerance] of the [quantcheck] CLI. *)

val certify :
  ?tolerance:float -> width:width -> Tb_model.Forest.t -> certificate

val certified_clean : certificate -> bool
(** No findings: integer-only inference at this width is proved safe for
    routing-stable rows within [tolerance]. *)

(** {2 Executable quantized path}

    The certified model in the plan's integers, evaluated by the ordinary
    tree walk ({!Tb_model.Forest.predict_raw}) — what the quantized LIR
    layout must agree with, and what the soundness harness replays
    against the certificate. *)

type qmodel = {
  qplan : plan;
  qforest : Tb_model.Forest.t;
      (** the source forest with every threshold, leaf and [base_score]
          replaced by its plan integer, held as an integer-valued float *)
}

val quantize : plan -> Tb_model.Forest.t -> qmodel

val quantize_input : plan -> float array -> float array
(** Per-feature rounding of a row by its scale, as integer-valued floats
    (0 for unused features). *)

val qpredict_raw : qmodel -> float array -> float array
(** Quantize the row, walk the quantized forest, dequantize by
    [2^-leaf_exp]: the end-to-end integer fast path whose deviation the
    certificate bounds. Every partial sum is an integer far below 2^53,
    so the float walk adds exactly. *)

val dead_zone_row : plan -> Tb_model.Forest.t -> float array -> bool
(** True when some internal node [(f, t)] of the forest disagrees between
    [x_f < t] and its quantized comparison — the only rows on which
    quantized routing can diverge from float routing. The certificate's
    deviation and flip claims hold on rows where this is [false]. *)

val reference_raw : Tb_model.Forest.t -> float array -> float array
(** Float reference margins computed with {!Tb_util.Stats.neumaier_sum}
    (near-exact accumulation), the baseline the deviation bound is
    stated against. *)

val report_to_json : certificate -> Tb_util.Json.t
(** Machine-readable certificate: plan exponents, bounds, findings. *)
