(** LIR static analyses: a relational forward dataflow over
    {!Tb_lir.Reg_ir} walk programs (intervals in reduced product with a
    {!Congruence} stride domain, plus provenance-tracked
    [child_ptr + lut_child] facts from {!Tb_lir.Layout.stride_facts}) and
    a closure check over {!Tb_lir.Layout} model buffers. The register
    discipline ([L001]..[L004]) is {!Tb_lir.Reg_ir.check}'s; the dataflow
    proves buffer bounds on the programs that pass it.

    Bounds verdicts come in three tiers, reflecting what the abstract
    domains can prove about cursor-chasing loads:

    - [L010] (error) — a {e finite} index interval is disjoint from the
      buffer: the load is out of bounds on {e every} execution that reaches
      it (widened intervals are excluded — they can be disjoint only
      because the abstract iteration they describe is unreachable);
    - [L011] (warning) — a finite interval sticks out of the buffer: some
      abstract executions go out of bounds, but the imprecision may be the
      analysis's;
    - [L012] (info) — the index is loop-variant and escaped even
      widening-with-thresholds; nothing is provable by intervals alone.

    Unroll-and-jam walk variants get a lane-aware treatment: the
    {!Alias} partition is verified first (its refutation is the [L013]
    lane-collision error), then each lane is analyzed as its own
    single-lane projection with no widening across lanes, identical
    per-lane findings are reported once, and an [L014] info fact records
    that lane independence was proved.

    The accompanying {!check_layout} closure check is the precise
    complement: it proves, slot by slot, that every walk stays inside its
    tree's slots and ends — which together with the dataflow facts is the
    actual memory-safety argument for the generated walks. *)

type interval = { lo : float; hi : float }
(** Closed interval; either bound may be infinite. *)

type env = {
  tile_size : int;
  extent : Tb_lir.Reg_ir.buffer -> int;
      (** number of addressable scalar elements *)
  content : Tb_lir.Reg_ir.buffer -> (int * int) option;
      (** min/max value stored in an integer buffer, [None] for float
          buffers or when unknown — model buffers are compile-time
          constants, so this is exact *)
  content_cg : Tb_lir.Reg_ir.buffer -> Congruence.t;
      (** congruence class (gcd stride) of an integer buffer's values *)
  tile_advance : (int * int) option;
      (** {!Tb_lir.Layout.stride_facts}: exact range of
          [child_ptr + reachable lut child] over non-leaf sparse slots *)
  leaf_advance : (int * int) option;
      (** exact range of [-child_ptr - 1 + reachable lut child] over
          leaf-children sparse slots *)
  widen_thresholds : float array;
      (** sorted landmarks for widening-with-thresholds (buffer extents,
          content bounds, advance ranges, small codegen constants) *)
}

val env_of_layout : num_features:int -> Tb_lir.Layout.t -> env
(** Extents, content ranges, congruences and relational facts read off the
    actual layout arrays, once per buffer. Each integer buffer's range
    (the LUT's over all its rows) is one typed loop over its elements,
    and {!Tb_lir.Layout.stride_facts} bounds the advance ranges the same
    way. *)

val check_program :
  env -> Tb_lir.Reg_ir.walk_program -> Tb_diag.Diagnostic.t list
(** The program's {!Tb_lir.Reg_ir.check} findings ([L001]..[L004]), an
    [L003] error when its tile size is not the layout's, and — only when
    none of those is an error — a bounds verdict for every buffer access
    ([L010]/[L011]/[L012]) from a forward dataflow. Branch conditions
    refine intervals and congruence classes ([Ige] on both arms);
    [While] bodies run to a threshold-widened fixpoint before one
    reporting pass; [Repeat] bodies are executed abstractly [n] times.
    Duplicate bounds findings at one program point are deduplicated. *)

val analyze_program :
  env -> Tb_lir.Reg_ir.walk_program ->
  Tb_diag.Diagnostic.t list * (Tb_lir.Reg_ir.buffer * interval) list
(** Like {!check_program}, additionally returning per-buffer access facts:
    for each buffer, the hull of every access's index range (vector
    accesses contribute [index .. index + width - 1]) proved by the
    reporting pass, or none when the dataflow did not run. The soundness
    harness replays concrete executions against these hulls. *)

val check_variant :
  env -> variant:int -> Tb_lir.Reg_ir.walk_program -> Tb_diag.Diagnostic.t list
(** Analyze one (possibly jammed) walk variant, findings prefixed with
    [variant N]. Single-lane programs go straight to {!check_program};
    multi-lane programs first get their register partition verified by
    {!Alias.check} — collisions are reported as [L013] (falling back to an
    analysis of the joint program) and a proved partition yields per-lane
    analysis plus the [L014] lanes-independent fact. *)

val check_walks :
  env -> Tb_lir.Layout.t -> Tb_mir.Mir.t -> Tb_diag.Diagnostic.t list
(** {!check_variant} over every generated walk variant
    ({!Tb_lir.Reg_codegen.jammed_variants}, i.e. each group's program at
    its schedule's interleave factor). Structurally identical programs
    are analyzed once and their findings re-prefixed per variant. *)

val check_layout : num_features:int -> Tb_lir.Layout.t -> Tb_diag.Diagnostic.t list
(** {!Tb_lir.Layout.check}, the well-formedness rules ([L020]..[L024])
    the artifact decoder also enforces. *)

val check :
  num_features:int -> Tb_lir.Layout.t -> Tb_mir.Mir.t ->
  Tb_diag.Diagnostic.t list
(** {!check_layout} plus {!check_walks}. *)
