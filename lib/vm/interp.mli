(** Register-IR interpreter: the second execution backend.

    Executes the {!Tb_lir.Reg_codegen} walk programs over the layout
    buffers with lane-exact vector semantics. Much slower than the closure
    JIT — its purpose is independence: it shares no walk logic with
    {!Jit}, so agreement between the two (and the reference traversal) is
    strong evidence the lowering is correct. It also serves as the
    executable semantics of the register IR. *)

type predictor = float array array -> float array array

val compile :
  ?trace:(group:int -> Tb_lir.Reg_ir.buffer -> int -> unit) ->
  Tb_lir.Lower.t -> predictor
(** Generate, verify and interpret the per-group walk programs following
    the MIR loop order (single-threaded; interleaving does not change
    interpretation order). Output equals {!Jit.instantiate}'s bit-for-bit
    (tested).

    [trace] observes every concrete buffer access of group [group]'s walk
    program — scalar loads directly, vector loads once per lane, LUT
    accesses by flat index — before it happens. The soundness harness uses
    it to replay executions against the index ranges
    {!Tb_analysis.Lir_check.analyze_program} claims to have proved. *)

val run_walk :
  Tb_lir.Reg_ir.walk_program ->
  Tb_lir.Lower.t ->
  tree:int ->
  row:float array ->
  float
(** Execute one walk program for one (tree, row) pair — exposed for the
    translation validator's witness replay and for tests. *)
