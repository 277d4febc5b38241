(** Structured compiler diagnostics — the currency of [tbcheck].

    Every static analysis in the compiler (HIR tiling/LUT/padding checks,
    MIR loop-nest checks, the LIR dataflow verifier, the layout closure
    check) reports findings as values of {!t} instead of bare strings: a
    stable error code, a severity, the IR level the finding belongs to, a
    location path into the artifact, and a human-readable message. The
    pass manager ({!Tb_core.Passman}) fails compilation on [Error]
    diagnostics and forwards the rest; the [treebeard_cli lint] subcommand
    renders them.

    {2 Error-code registry}

    Codes are stable identifiers; tests assert on them. Allocated so far:

    - [S001]..[S006] — schedule field ranges; [S010]..[S012] — deployment
      advisories (threads/interleave vs batch size, array-layout blowup)
    - [H001] partitioning, [H002] connectedness, [H003] leaf separation,
      [H004] maximal tiling (the four §III-B1 tiling constraints)
    - [H010] LUT totality / row consistency
    - [H020] padding well-formedness (malformed dummy tile)
    - [H030] tiled-tree structural fault, [H031] feature id out of range,
      [H032] tile lane disagrees with the source model
    - [H040] tree-group coverage, [H041] bogus group uniformity claim
    - [M001] loop-nest tree coverage, [M002] unrolled walk on a
      non-uniform group / wrong depth, [M003] over-deep peel,
      [M004] bad interleave factor, [M005] loop order diverges from the
      schedule, [M006] bad thread count
    - [M010] parallel row loop: overlapping domain write ranges (race),
      [M011] parallel row loop: rows not covered
    - register discipline, defined by [Tb_lir.Reg_ir.check]: [L001]
      register out of range, [L002] use before definition (a warning
      when a lane's result register may be unset at the walk's exit),
      [L003] vector lane-type or load/buffer element-type mismatch (or,
      from [Lir_check], a program tile size that is not the layout's),
      [L004] negative repeat count
    - [L010] buffer index definitely out of bounds, [L011] buffer index
      possibly out of bounds (finite interval sticking out after the
      congruence/stride refinement), [L012] bounds not provable
      (loop-variant index widened to an infinite interval even with
      threshold widening, informational)
    - [L013] unroll-and-jam lane collision: a statement of a jammed walk
      program touches registers of more than one lane window, so lanes
      are not provably independent and per-lane analysis is unsound;
      [L014] lanes-independent fact (informational): the alias analysis
      verified the per-lane register partition of a jammed program by
      dataflow, and per-lane findings are reported on lane 0 only
    - [L020] layout closure: dangling tile successor, [L021] layout
      feature id out of range, [L022] tree root out of range, [L023] leaf
      index out of range, [L024] malformed LUT row
    - [C001] cost-model rank disagreement: the cost model's schedule
      ranking contradicts measured execution (low Kendall-τ over a grid,
      or the predicted champion's measured regret over the measured best
      exceeds the top-k tolerance)
    - [C002] event-count divergence: the sample-extrapolated workload the
      autotuner scores diverges from the full-batch instrumented counts
      beyond tolerance (extrapolation drift)
    - [C003] stall-attribution mismatch: a top-down stall bucket share of
      the supplied breakdown disagrees with the breakdown recomputed from
      the measured event counts (cost-model drift against the profiler,
      à la the paper's §VI-E VTune analysis)
    - [V001] virtual-clock drift: a model's measured wall-clock batch
      service time diverges from the virtual clock's modeled service time
      beyond tolerance at some percentile (the serving runtime's dual-clock
      calibration, {!Tb_analysis.Serve_check})
    - [V002] compile-cost drift: the measured wall-clock compile time of
      cache misses diverges from the registry's modeled compile cost
      beyond tolerance
    - [T001] translation-validation partition mismatch: a feature-space
      region where the source tree has a leaf but the compiled form has
      neither a path nor a stuck box ({!Tb_analysis.Validate}); the
      finding carries a witness row inside the uncovered box. A jammed
      lane that is not a window renaming of its group's program is a
      [T001] too, with no witness
    - [T002] translation-validation leaf-value mismatch: the source tree
      and a compiled form claim different leaf contributions on
      overlapping boxes, yet concrete replay at the witness row did not
      diverge (symbolic-summary imprecision — investigate, not fatal)
    - [T003] translation-validation stuck region: a compiled form gets
      stuck where the source tree has a leaf, e.g. a walk stepping out
      of bounds, breaking its peel/unroll contract or running out of
      fuel on a corrupt layout
    - [T004] witness-confirmed miscompile: a compiled form's summary
      disagrees with its source tree's on a region AND concretely
      replaying both on the witness row (midpoint of the disagreeing
      box) produced diverging predictions — an error-severity member of
      the family
    - [T005] quantized-path divergence: the quantized LIR layout's
      own walk disagrees {e bitwise} with the certified
      integer evaluator ([Numeric.qpredict_raw]) on a probe row — a
      miscompile of the integer fast path (error severity; the finding
      carries the witness row)
    - [A001] artifact magic mismatch: the bytes are not a packed predictor
      artifact (wrong/absent magic, or shorter than a header)
    - [A002] artifact version unsupported: the decoder does not speak the
      artifact's declared format version
    - [A003] artifact checksum mismatch: the payload's CRC32 disagrees with
      the header — bit rot or torn write; the artifact is discarded and the
      registry falls back to a fresh compile
    - [A004] artifact body malformed: the payload parses out of bounds,
      declares inconsistent block lengths, fails structural validation
      (layout buffer lengths, walk-program register discipline) or is
      truncated — every decode failure is one of A001..A004, never a crash
      ({!Tb_lir.Pack})
    - [N001] quantization scaled-value overflow: at the chosen width the
      quantized per-class accumulator (or a scaled threshold/leaf, or a
      non-finite model constant) can exceed the integer range the
      certificate assumes, so integer-only inference could wrap
      ({!Tb_analysis.Numeric})
    - [N002] quantization threshold collision: two distinct thresholds on
      one feature quantize to the same integer — every row whose feature
      value lands in the dead zone between them can be routed differently
      by the integer path; the finding reports the collision count and
      the widest dead zone
    - [N003] quantization worst-case leaf-sum deviation: the statically
      proved per-class deviation bound of the dequantized output against
      the float reference exceeds the requested tolerance
    - [N004] quantization argmax/sign flip possible: for a classification
      model, some class pair's reachable margin interval comes within the
      combined deviation bound of the decision boundary, so quantization
      alone (routing unchanged) could flip the predicted class
    - [N005] precision fallback (info): a quantized tier was requested
      but N001/N003/N004 findings refuted the certificate (or the
      quantized stage pair failed), so the compile fell back to the
      float tier — the blocking findings ride along demoted to info
      ({!Tb_core.Treebeard.make}) *)

type severity = Info | Warning | Error

type level =
  | Schedule  (** the optimization-option record, checked before lowering *)
  | Hir
  | Mir
  | Lir
  | Cost  (** cost-model calibration findings ({!Tb_analysis.Cost_check}) *)
  | Serve
      (** serving-runtime dual-clock calibration findings
          ({!Tb_analysis.Serve_check}) *)
  | Validate
      (** cross-stage translation-validation findings
          ({!Tb_analysis.Validate}) *)
  | Artifact
      (** packed-predictor-artifact decode findings ({!Tb_lir.Pack}) *)
  | Numeric
      (** value-range / quantization certification findings
          ({!Tb_analysis.Numeric}) *)

type t = {
  code : string;  (** stable registry code, e.g. ["L010"] *)
  severity : severity;
  level : level;
  path : string list;
      (** outermost-first location, e.g. [["tree 3"; "tile 7"; "lane 2"]] *)
  message : string;
}

val errorf :
  level:level -> code:string -> path:string list ->
  ('a, unit, string, t) format4 -> 'a

val warningf :
  level:level -> code:string -> path:string list ->
  ('a, unit, string, t) format4 -> 'a

val infof :
  level:level -> code:string -> path:string list ->
  ('a, unit, string, t) format4 -> 'a

val severity_string : severity -> string
val level_string : level -> string

val registry : (string * level) list
(** Every allocated code with its level — the registry the doc comment
    above describes, as data. The census families
    ({!Tb_analysis.Census.all_families}) and the family-coverage test
    check against it: codes are unique, every family-tracked code is
    registered, and a code's leading letter determines its level
    (S=Schedule, H=Hir, M=Mir, L=Lir, C=Cost, V=Serve, T=Validate,
    A=Artifact, N=Numeric). *)

val is_error : t -> bool
val errors : t list -> t list
(** Error-severity findings only. *)

val has_errors : t list -> bool
(** True when any finding is [Error]-severity — the pass manager's
    rejection criterion ("lint clean" means no errors; warnings and infos
    are advisory). *)

val compare : t -> t -> int
(** Severity-major (errors first), then code, then path — a stable
    presentation order. *)

val pp : Format.formatter -> t -> unit
(** One line: [error[L010] lir @ group 0 > body: index ...]. *)

val to_string : t -> string

val to_json : t -> Tb_util.Json.t
(** Structured rendering for machine-readable reports (the [calibrate]
    CLI's JSON output). *)

val summary : t list -> string
(** Count line, e.g. ["2 errors, 1 warning, 4 infos"]. *)
