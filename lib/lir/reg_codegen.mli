(** Code generation into the register-level walk IR.

    Emits the {!Reg_ir.walk_program} for a layout and walk specialization —
    the textual/interpretable equivalent of what the closure JIT builds.
    Programs are verified ({!Reg_ir.check}) before being returned. *)

val walk_program :
  Layout.t -> Tb_mir.Mir.walk_kind -> Reg_ir.walk_program
(** Generate (and verify) the walk body for one (tree, row) pair under the
    layout's addressing scheme.
    @raise Invalid_argument if the generated program fails verification
    (a compiler bug, caught eagerly). *)

val all_variants : Layout.t -> Tb_mir.Mir.t -> (int * Reg_ir.walk_program) list
(** One verified program per MIR group plan, keyed by group index.
    Ignores interleaving — each program is the single-lane walk body. *)

val jam_lanes : Reg_ir.walk_program -> lanes:int -> Reg_ir.walk_program
(** Unroll-and-jam: replicate a single-lane program across [lanes] disjoint
    register windows (lane [l]'s register [r] becomes
    [l * num_iregs + r], likewise float/vector files), interleaving
    straight-line statements in lockstep while per-lane control flow
    (While/If, whose condition registers are lane-private) is emitted
    sequentially per lane. Identity when [lanes <= 1].
    @raise Invalid_argument on an already-jammed input or if the jammed
    program fails {!Reg_ir.check}. *)

val jammed_variants : Layout.t -> Tb_mir.Mir.t -> (int * Reg_ir.walk_program) list
(** Like {!all_variants} but each group's program is jammed to its plan's
    interleave factor — the register-file shape the interleaved backend
    executes and the shape {!Tb_analysis.Lir_check} analyses per lane. *)

(** Register-convention constants (exposed for the alias analysis seed and
    the interpreter's lane setup). *)

val num_iregs : int
val num_fregs : int
val num_vregs : int
