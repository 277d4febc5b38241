(** Translation validation of the lowering pipeline (the T00x family).

    Every root-to-leaf path of a decision tree is a conjunction of
    [x_f < t] / [x_f >= t] facts — a {e box} over feature space. This
    module walks each compiled form of a tree — the HIR tiled tree
    (through the LUT child tables and padding), the MIR walk kinds
    (peeled / unrolled step contracts), the LIR layout buffers and the
    register-IR walk programs (including unrolled sparse steps) — and
    can execute it symbolically into a canonical {e path summary}: the
    set of [(box, leaf contribution)] pairs the form can produce, plus
    any {e stuck} regions where execution is undefined (out-of-bounds
    load, walk-contract violation, fuel exhaustion on a corrupt layout).

    The source tree is the one reference, and a lockstep walk decides
    each (tree, form) pair: the form's walker runs with the source tree
    as what its path carries. The form {e follows} its source when every
    lane its LUT rows test is the source node's feature with a
    bitwise-equal threshold, or compares against [+inf] or [-inf] (then
    only the branch a box would keep is taken, and the source stays
    put); when every leaf it reaches is the source leaf bit for bit; and
    when no stuck condition arises. A pair that follows has a summary
    equal to its source's path for path, so it gets no finding and no
    summary is built. Any other pair is summarized, and its summary is
    compared with the source tree's. Summaries are normalized (tightest
    intervals, unconstrained features omitted, boxes sorted). The source
    summary tiles feature space exactly and never gets stuck, so three
    disagreements remain: leaf values that differ where boxes overlap,
    source regions the form does not cover, and form regions that get
    stuck. Each is localized to a box, a witness
    row (its midpoint) is built, and the divergence is {e refuted
    concretely}: {!Tb_model.Tree.predict} runs on the source side, the
    form's evaluator ({!Tb_hir.Tiled_tree.walk}, {!Tb_mir.Mir.walk_tree},
    {!Tb_lir.Layout.walk} or {!Tb_vm.Interp.run_walk}) on the other. Only
    a confirmed divergence is an error ([T004]); the rest stay warnings
    ([T001]..[T003], see {!Tb_diag.Diagnostic}'s registry). A form that
    partitions space differently but computes the same function gets no
    finding.

    Cost: the LUT child table of each tile is first compiled into a
    reduced decision structure that only splits on lanes the table
    actually consults, so padding lanes and dummy/hop tiles add no
    branches. Each check call makes one pass over the trees. Per tree
    and form it runs one lockstep walk, linear in the number of source
    leaves, which allocates no box and sorts nothing; summaries (the
    source's at most once per tree) are built only to explain a form
    that does not follow. The decision structures are memoized in an
    array indexed by shape id, so finding a tile's structure is O(1);
    inside a slot the row is still checked by physical identity, so a
    mutated row copy under the same shape id gets its own structure.
    This keeps the validator cheap enough to run inside
    {!Tb_core.Passman}'s [Verify_each] mode by default. *)

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

val summarize_layout : Tb_lir.Layout.t -> tree:int -> summary
(** Symbolic traversal of the layout buffers, mirroring
    {!Tb_lir.Layout.walk}; bounds-checked, with fuel against cycles in
    corrupt sparse layouts. *)

(** {2 Summary utilities} *)

val num_paths : summary -> int

val exact_partition : summary -> bool
(** The path and stuck boxes are pairwise disjoint and jointly cover all
    of feature space — every input row hits exactly one box. Holds for
    every summary of a well-formed form (tested); quadratic, meant for
    tests and reporting rather than hot paths. *)

val equal_summaries : summary -> summary -> bool
(** Structural equality of normalized summaries: a form whose summary
    equals its source's gets no finding. *)

(** {2 Findings} *)

type stage = Source | Hir | Mir | Lir | Reg | Quant

val stage_name : stage -> string

type finding = {
  code : string;  (** ["T001"].."T004"] *)
  severity : Tb_diag.Diagnostic.severity;
  tree : int;  (** execution-order (layout) tree index *)
  pair : stage * stage;
      (** [(Source, form)] for a per-tree finding: the form that diverged
          from its source tree *)
  region : box;  (** a disagreeing box *)
  witness : float array option;
      (** concrete row inside [region] (midpoint), when one was built *)
  message : string;
}

val to_diagnostics : finding list -> Tb_diag.Diagnostic.t list

(** {2 Pipeline checks (what {!Tb_core.Passman} runs)} *)

val check_hir : Tb_hir.Program.t -> finding list
(** Source ↔ HIR tiled trees, per tree. *)

val check_mir : Tb_hir.Program.t -> Tb_mir.Mir.t -> finding list
(** Source ↔ MIR walk kinds, per tree; trees on the generic walk are the
    HIR form and are skipped. Expects at least the specialized MIR;
    interleaving and parallelization do not change walk kinds. *)

val check_lir :
  Tb_hir.Program.t -> Tb_mir.Mir.t -> Tb_lir.Layout.t -> finding list
(** Source ↔ LIR layout buffers, per tree. The layout walk does not
    depend on walk kinds, so the MIR argument is unused; it stays so
    that callers pass every stage check the same [(hir, mir, layout)]
    as {!check_all}. *)

val check_reg :
  Tb_hir.Program.t -> Tb_mir.Mir.t -> Tb_lir.Layout.t -> finding list
(** Source ↔ register-IR walk programs: every tree against its group's
    single-lane program, plus the unroll-and-jam renaming check — each
    lane of a jammed variant must project (window extraction +
    rebasing) to exactly the group's single-lane program, so validating
    the base program validates every lane. A lane that does not is a
    [T001] warning with pair (lir, reg) and tree [-1]. *)

val check_all :
  Tb_hir.Program.t -> Tb_mir.Mir.t -> Tb_lir.Layout.t -> finding list
(** All four forms in one pass over the trees: the same findings as
    [check_hir @ check_mir @ check_lir @ check_reg], in that order, with
    each source tree summarized at most once. *)

val check_quant :
  ?rows:int ->
  Tb_model.Forest.t ->
  Numeric.plan ->
  Tb_lir.Lower.t ->
  finding list
(** The quantized stage pair (Lir ↔ Quant), checked concretely: the
    quantized layout's own evaluation (quantize the row, add each tree's
    {!Tb_lir.Layout.walk} to the quantized base score, dequantize)
    against the certified integer evaluator ({!Numeric.qpredict_raw}) on
    [rows] deterministic Gaussian probes plus threshold-tie probes,
    compared {e bitwise} per class — the two integer paths must agree on
    every row, dead zones included (only the float path may diverge
    there). Any mismatch is a [T005] error with the witness row; a float
    lowering is one [T005] error without a witness. *)
