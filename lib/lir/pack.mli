(** Packed predictor artifacts: the serializable half of a compile.

    A {!t} is everything {!Tb_vm.Jit} needs to build a predictor — the
    {!Layout} buffers, the MIR walk plan (loop order, per-group walk kind /
    interleave / tree positions) and per-tree aggregation classes — plus
    compile-time metadata (model name, canonical schedule, CPU target, the
    deterministic modeled service time). It deliberately does {e not}
    carry the HIR or MIR: a pack is the {e result} of lowering, so
    rehydrating one is a bounded [Bytes] decode followed by closure
    construction, never a recompile.

    The wire format (see DESIGN.md §11) is a 16-byte header — magic
    ["TBPK"], format version, payload length, CRC32 — followed by
    length-prefixed blocks in traversal order (metadata, walk plan, tree
    tables, layout buffers in the order a walk touches them, register
    programs). Floats are stored as their IEEE-754 bit patterns, so a
    decoded artifact's predictions are bitwise-equal to the compiler's.
    The register-program block is derived: {!encode} writes each group's
    {!Reg_codegen.walk_program} for the layout and walk plan, and
    {!decode} checks the stored block against that encoding instead of
    parsing it. {!encode} is the one definition of the format.

    Decoding is total: every failure — wrong magic ([A001]), unsupported
    version ([A002]), checksum mismatch ([A003]), truncation or a
    malformed/inconsistent body ([A004]) — is returned as a structured
    {!error}, never an exception, so callers (the {!Tb_serve.Registry}
    disk tier) can fall back to a fresh compile. *)

type group = {
  positions : int array;
      (** layout tree indices this group walks, in execution order *)
  walk : Tb_mir.Mir.walk_kind;
  interleave : int;  (** jam factor; 1 = no interleaving *)
}

type meta = {
  model : string;
  target : string;  (** CPU target name the artifact was compiled for *)
  schedule : Tb_hir.Schedule.t;
      (** the exact (normalized) schedule that was lowered *)
  us_per_row : float;
      (** deterministic modeled service time per row, {e uncalibrated}
          ({!Tb_core.Perf.simulate} at pack time); 0 when unknown *)
}

type quant = {
  resident_k : int;
      (** inert: the depth of a register-resident tree-top prefix, which
          the JIT no longer builds. New packs record 0; decode still
          rejects a negative value (A004), and instantiate ignores the
          field, so packs that differ only here predict bitwise alike.
          Kept so the v2 wire format and its fixtures stay unchanged. *)
  dev_bound : float array;
      (** per output class: the certificate's proved N003 deviation bound
          between quantized and float predictions *)
  tolerance : float;  (** the tolerance the certificate was checked against *)
}
(** Integer-fast-path metadata. Present exactly when [layout.quant] is
    — the pack carries the serving-side record of {e which} precision
    tier it implements and what accuracy was proved for it. The
    fixed-point spec itself ({!Layout.qspec}) is serialized alongside
    and rehydrated into the layout. *)

type t = {
  meta : meta;
  loop_order : Tb_hir.Schedule.loop_order;
  num_threads : int;
  num_outputs : int;
  base_score : float;
  tree_class : int array;  (** per layout tree: output class *)
  walk_depth : int array;  (** per layout tree: max tiled walk depth *)
  groups : group array;
  layout : Layout.t;
  quant : quant option;
      (** [Some _] iff the layout is quantized (enforced by
          {!of_lower}/[validate]) *)
}

val of_lower :
  ?model:string ->
  ?target:string ->
  ?us_per_row:float ->
  ?quant:quant ->
  Lower.t ->
  t
(** Artifact construction: project a lowered program onto its packable
    form (drop the HIR/MIR, keep the execution plan).
    [?quant] must be given exactly when the lowered layout is quantized.
    @raise Invalid_argument when the quant metadata and the layout
    disagree about the precision tier. *)

val format_version : int
(** Current wire-format version. Bump on any incompatible layout change —
    the golden-artifact byte-stability test fails loudly otherwise. *)

val magic : string
(** The 4-byte artifact magic, ["TBPK"]. *)

type error = { code : string; message : string }
(** Structured decode failure; [code] is one of ["A001"].."A004"] (see
    {!Tb_diag.Diagnostic}'s registry). *)

val error_to_diagnostic : error -> Tb_diag.Diagnostic.t

val encode : t -> bytes
(** Serialize. Deterministic, and every field is written (floats as bit
    patterns), so two packs are equal exactly when their encodings are:
    compare [encode] bytes to compare packs. *)

val decode : bytes -> (t, error) result
(** Total inverse of {!encode}: validates magic, version, length and
    checksum before touching the payload, then rejects the first
    {!Layout.check} error of the decoded layout ([A004], naming its code
    and path), so every walk of a decoded pack ends and reads only its
    tree's slots and the leaf store; then checks the plan (per-tree
    tables, every tree in exactly one group plan, the quant block), and
    finally that the register-program block is byte for byte what
    {!encode} derives from the decoded layout and plan ([A004] otherwise,
    so artifacts from another codegen are misses). Never raises. *)

val crc32 : bytes -> pos:int -> len:int -> int32
(** The checksum used by the format (CRC-32/IEEE 802.3, reflected) over
    [len] bytes from [pos] — exposed for tests that craft adversarial
    artifacts.
    @raise Invalid_argument if the range is not inside the buffer. *)

