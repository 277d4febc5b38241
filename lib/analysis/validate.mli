(** Translation validation of the lowering pipeline (the T00x family).

    Every root-to-leaf path of a decision tree is a conjunction of
    [x_f < t] / [x_f >= t] facts — a {e box} over feature space. This
    module symbolically executes each compiled form of a tree — the
    source binary tree, the HIR tiled tree (through the LUT child tables
    and padding), the MIR walk kinds (peeled / unrolled step contracts),
    the LIR layout buffers and the register-IR walk programs (including
    unrolled sparse steps) — into a canonical {e path summary}: the set
    of [(box, leaf contribution)] pairs the form can produce, plus any
    {e stuck} regions where execution is undefined (out-of-bounds load,
    walk-contract violation, fuel exhaustion on a corrupt layout).

    Summaries are normalized (tightest intervals, unconstrained features
    omitted, boxes sorted) so two correct lowerings of the same tree
    produce structurally equal summaries; comparison is then a fast
    structural check. On inequality the comparer localizes the
    divergence by box intersection/subtraction, picks a witness row (the
    midpoint of the disagreeing box) and {e refutes concretely}: both
    forms are replayed on the witness — {!Tb_model.Tree.predict},
    {!Tb_hir.Tiled_tree.walk}, {!Tb_mir.Mir.walk_tree},
    {!Tb_lir.Layout.walk} and {!Tb_vm.Interp.run_walk} respectively —
    and only a confirmed divergence is an error ([T004]); everything
    else stays a warning ([T001]..[T003], see
    {!Tb_diag.Diagnostic}'s registry).

    Cost: summarization is per-tree (never per-forest-product) and
    linear in the number of source leaves — the LUT child table of each
    tile is first compiled into a reduced decision structure that only
    splits on lanes the table actually consults, so padding lanes and
    dummy/hop tiles add no paths. Each check call memoizes those
    structures in an array indexed by shape id, so finding a tile's
    structure is O(1); inside a slot the row is still checked by
    physical identity, so a mutated row copy under the same shape id
    gets its own structure. This keeps the validator cheap enough to run
    inside {!Tb_core.Passman}'s [Verify_each] mode by default. *)

type interval = { feature : int; lo : float; hi : float }
(** Half-open constraint [lo <= x_feature < hi]; [lo] may be
    [neg_infinity] and [hi] may be [infinity], but never both (a fully
    unconstrained feature is omitted from its box). *)

type box = interval list
(** Conjunction of interval constraints, sorted by feature, at most one
    interval per feature. The empty list is all of feature space. *)

type summary = {
  paths : (box * float) list;
      (** normalized: boxes sorted; one entry per reachable leaf path *)
  stuck : (box * string) list;
      (** regions where the form's execution is undefined (reason given);
          empty for well-formed inputs *)
}

(** {2 Per-form summarizers} *)

val summarize_source : Tb_model.Tree.t -> summary

val summarize_hir : Tb_hir.Tiled_tree.t -> summary
(** Through the tile shapes' LUT rows; padding tiles add no paths. *)

val summarize_mir : Tb_mir.Mir.walk_kind -> Tb_hir.Tiled_tree.t -> summary
(** Under the walk kind's step contract: a peeled walk marks leaves
    shallower than [peel] stuck, an unrolled walk marks any path not
    ending on a leaf after exactly [depth] tile steps stuck. *)

val summarize_layout : Tb_lir.Layout.t -> tree:int -> summary
(** Symbolic traversal of the layout buffers, mirroring
    {!Tb_lir.Layout.walk}; bounds-checked, with fuel against cycles in
    corrupt sparse layouts. *)

val summarize_reg :
  ?num_features:int ->
  Tb_lir.Reg_ir.walk_program ->
  Tb_lir.Layout.t ->
  tree:int ->
  summary
(** Symbolic execution of a register-IR walk program (lanes = 1) over
    the layout buffers, forking at the LUT load on the comparison
    bitmask. [num_features] enables bounds-checking the row gather. *)

(** {2 Summary utilities} *)

val num_paths : summary -> int

val exact_partition : summary -> bool
(** The path and stuck boxes are pairwise disjoint and jointly cover all
    of feature space — every input row hits exactly one box. Holds for
    every summary of a well-formed form (tested); quadratic, meant for
    tests and reporting rather than hot paths. *)

val equal_summaries : summary -> summary -> bool
(** Structural equality of normalized summaries — the fast path. *)

val coalesce : summary -> summary
(** Merge adjacent same-value boxes (equal on every other feature,
    abutting on one) to a fixpoint — canonicalization before slow-path
    comparison, so partition drift that does not change semantics is not
    reported. *)

(** {2 Cross-stage comparison} *)

type stage = Source | Hir | Mir | Lir | Reg | Quant

val stage_name : stage -> string

type finding = {
  code : string;  (** ["T001"].."T004"] *)
  severity : Tb_diag.Diagnostic.severity;
  tree : int;  (** execution-order (layout) tree index *)
  pair : stage * stage;
  region : box;  (** a disagreeing box *)
  witness : float array option;
      (** concrete row inside [region] (midpoint), when one was built *)
  message : string;
}

val compare_summaries :
  num_features:int ->
  pair:stage * stage ->
  tree:int ->
  replay:(stage -> float array -> float) ->
  summary ->
  summary ->
  finding list
(** Compare two adjacent forms' summaries for one tree. [replay] runs a
    form concretely on a witness row (it may raise; an exception on one
    side with a value on the other is a confirmed divergence). Returns
    [[]] iff the summaries agree (after {!coalesce}), and at most 4
    findings otherwise. *)

val to_diagnostics : finding list -> Tb_diag.Diagnostic.t list

(** {2 Pipeline checks (what {!Tb_core.Passman} runs)} *)

val check_hir : Tb_hir.Program.t -> finding list
(** Source ↔ HIR, per tree. *)

val check_mir : Tb_hir.Program.t -> Tb_mir.Mir.t -> finding list
(** HIR ↔ MIR (walk-kind semantics), per tree. Expects at least the
    specialized MIR; interleaving and parallelization do not change walk
    semantics. *)

val check_lir :
  Tb_hir.Program.t -> Tb_mir.Mir.t -> Tb_lir.Layout.t -> finding list
(** MIR ↔ LIR layout buffers, per tree. *)

val check_reg :
  Tb_hir.Program.t -> Tb_mir.Mir.t -> Tb_lir.Layout.t -> finding list
(** LIR ↔ register-IR walk programs: every tree against its group's
    program, plus the unroll-and-jam renaming check — each lane of a
    jammed variant must project (window extraction + rebasing) to
    exactly the group's single-lane program, so validating the base
    program validates every lane. *)

val check_all :
  Tb_hir.Program.t -> Tb_mir.Mir.t -> Tb_lir.Layout.t -> finding list
(** All four pairs in pipeline order. *)

val check_quant :
  ?rows:int ->
  Tb_model.Forest.t ->
  Numeric.plan ->
  Tb_lir.Lower.t ->
  finding list
(** The quantized stage pair (Lir ↔ Quant), checked concretely: the
    quantized lowering's reference evaluator
    ({!Tb_lir.Lower.reference_qpredict}) against the certified integer
    evaluator ({!Numeric.qpredict_raw}) on [rows] deterministic Gaussian
    probes plus threshold-tie probes, compared {e bitwise} per class —
    the two integer paths must agree on every row, dead zones included
    (only the float path may diverge there). Any mismatch is a [T005]
    error with the witness row. @raise Invalid_argument via
    [reference_qpredict] if the lowering is not quantized — callers gate
    on [layout.quant]. *)
