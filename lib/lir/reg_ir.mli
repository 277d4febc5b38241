(** The register-level walk IR — the layer Treebeard hands to LLVM.

    A {!walk_program} is straight-line/structured code over typed virtual
    registers (int, float, int-vector, float-vector) and symbolic model
    buffers. {!Reg_codegen} emits one program per (layout, walk kind) pair;
    {!Tb_vm.Interp} executes it with lane-exact vector semantics, giving a
    backend that is independent of the closure JIT and is tested to agree
    with it bit-for-bit.

    Conventions:
    - the walk's cursor state lives in int register 0 ([state_reg]); its
      meaning is layout-specific (array: slot local to the tree slab;
      sparse: absolute slot, negative values encode [-(leaf index) - 1]);
    - int register 1 ([base_reg]) holds the tree's root/base, loaded from
      the [Tree_roots] buffer by the prologue;
    - the final prediction is left in float register 0 ([result_reg]). *)

type buffer =
  | Thresholds  (** slot-major float lanes *)
  | Feature_ids  (** slot-major int lanes *)
  | Shape_ids  (** per slot *)
  | Child_ptrs  (** per slot (sparse layout) *)
  | Leaf_values
  | Lut  (** flattened: [shape_id * 2^tile_size + bits] *)
  | Tree_roots  (** per tree: slab base (array) or root slot (sparse) *)
  | Row  (** the input row *)

type ireg = int
type freg = int
type vreg = int  (** vector registers; int and float vectors share an id space *)

type iexpr =
  | Iconst of int
  | Imov of ireg
  | Iadd of ireg * ireg
  | Imul_const of ireg * int
  | Iadd_const of ireg * int
  | Isub of ireg * ireg
  | Iload of buffer * ireg  (** int load at a register index *)
  | Movemask of vreg
      (** pack an int-vector of {0,1} lane predicates into an integer, lane
          0 as MSB *)

type fexpr =
  | Fload of buffer * ireg

type vexpr =
  | Vload_f of buffer * ireg  (** [tile_size] consecutive floats *)
  | Vload_i of buffer * ireg
  | Gather of buffer * vreg  (** per-lane loads at an index vector *)
  | Vcmp_lt of vreg * vreg  (** float vectors -> {0,1} int vector *)

type cond =
  | Ige of ireg * int  (** reg >= immediate *)
  | Ieq_load of buffer * ireg * int  (** buffer.(reg) = immediate *)

type stmt =
  | Iset of ireg * iexpr
  | Fset of freg * fexpr
  | Vset of vreg * vexpr
  | While of cond * stmt list  (** loop while the condition holds *)
  | If of cond * stmt list * stmt list
  | Repeat of int * stmt list  (** unrolled: the body [n] times *)

type walk_program = {
  tile_size : int;
  layout : Layout.kind;
  body : stmt list;
  num_iregs : int;
  num_fregs : int;
  num_vregs : int;
  lanes : int;
      (** Unroll-and-jam lane count. 1 for plain walks. When [> 1] each
          register file is [lanes] equal windows; lane [l]'s copy of
          single-lane register [r] is [l * (num_iregs / lanes) + r] (and
          likewise for float/vector files). The driver initializes
          [state_reg]/[base_reg] at every lane's window offset. *)
}

val state_reg : ireg
val base_reg : ireg
val result_reg : freg

val lane_width : walk_program -> int
(** Int registers per jam lane ([num_iregs / lanes]). *)

val lane_fwidth : walk_program -> int
val lane_vwidth : walk_program -> int

val map_regs :
  ir:(ireg -> ireg) -> fr:(freg -> freg) -> vr:(vreg -> vreg) -> stmt -> stmt
(** Rename every register operand of a statement, recursing into
    [While]/[If]/[Repeat] bodies: int registers through [ir], float
    registers through [fr], vector registers through [vr]. Identity maps
    that record their argument make it a register visitor (operands are
    visited in no specified order). *)

val check : walk_program -> Tb_diag.Diagnostic.t list
(** Register-discipline verification with structured diagnostics, the
    one definition of [L001]..[L004]: register indices within the
    declared files ([L001]); every register assigned before use along
    all paths ([L002] error), and every lane's [result_reg] assigned on
    every path out of the walk ([L002] warning); vector operands used
    with their lane type, and every load typed as its buffer's elements
    ([L003]); non-negative repeat counts ([L004]). Findings are
    collected (not first-error-only); an empty list means the program is
    well-formed.

    {!Tb_analysis.Lir_check} proves buffer bounds against a {!Layout} on
    the programs this check accepts. *)

val buffer_name : buffer -> string
(** Display name used in diagnostics and the assembly rendering, e.g.
    ["shapeIds"]. *)

val pp : Format.formatter -> walk_program -> unit
(** Assembly-style rendering, e.g. [i2 <- load.shapeIds [i0]]. *)

val to_string : walk_program -> string

val count_ops : walk_program -> static:bool -> int
(** Number of instructions: [static] counts the program text (Repeat bodies
    once); otherwise Repeat bodies are multiplied out. *)
