module Mir = Tb_mir.Mir
open Reg_ir

(* Fixed register assignment (the walk needs only a handful of values
   live at once; a real backend would run a register allocator here).

   iregs: 0 state (cursor)         1 base (tree slab/root)
          2 absolute slot          3 lane offset (slot * tile_size)
          4 comparison bits        5 shape id
          6 LUT index              7 child index
          8 child pointer (sparse) 9 scratch
   fregs: 0 result
   vregs: 0 thresholds (f32)       1 feature indices (i32)
          2 gathered features(f32) 3 comparison mask (i32) *)

let r_state = state_reg
let r_base = base_reg
let r_abs = 2
let r_lane = 3
let r_bits = 4
let r_shape = 5
let r_lut = 6
let r_child = 7
let r_cptr = 8
let r_scratch = 9

let v_thr = 0
let v_feat = 1
let v_row = 2
let v_mask = 3

let num_iregs = 10
let num_fregs = 1
let num_vregs = 4

(* The §V-A vectorized predicate evaluation for the tile at [r_abs]:
   leaves the LUT-selected child index in [r_child]. *)
let evaluate_tile tile_size =
  [
    Iset (r_lane, Imul_const (r_abs, tile_size));
    Vset (v_thr, Vload_f (Thresholds, r_lane));
    Vset (v_feat, Vload_i (Feature_ids, r_lane));
    Vset (v_row, Gather (Row, v_feat));
    Vset (v_mask, Vcmp_lt (v_row, v_thr));
    Iset (r_bits, Movemask v_mask);
    Iset (r_shape, Iload (Shape_ids, r_abs));
    Iset (r_lut, Imul_const (r_shape, 1 lsl tile_size));
    Iset (r_lut, Iadd (r_lut, r_bits));
    Iset (r_child, Iload (Lut, r_lut));
  ]

(* ---------------- array layout ---------------- *)

(* state = slot local to the tree's slab; abs = base + state. *)
let array_abs = Iset (r_abs, Iadd (r_base, r_state))

let array_advance tile_size =
  [
    Iset (r_state, Imul_const (r_state, tile_size + 1));
    Iset (r_state, Iadd (r_state, r_child));
    Iset (r_state, Iadd_const (r_state, 1));
  ]

let array_step tile_size = (array_abs :: evaluate_tile tile_size) @ array_advance tile_size

let array_leaf_fetch tile_size =
  (* Leaf slots store the value in threshold lane 0. *)
  [
    array_abs;
    Iset (r_lane, Imul_const (r_abs, tile_size));
    Fset (result_reg, Fload (Thresholds, r_lane));
  ]

let array_generic tile_size =
  [
    array_abs;
    Iset (r_shape, Iload (Shape_ids, r_abs));
    While
      ( Ige (r_shape, 0),
        evaluate_tile tile_size @ array_advance tile_size
        @ [ array_abs; Iset (r_shape, Iload (Shape_ids, r_abs)) ] );
  ]
  @ array_leaf_fetch tile_size

let array_unrolled tile_size depth =
  [ Repeat (depth, array_step tile_size) ] @ array_leaf_fetch tile_size

let array_peeled tile_size peel =
  (* The first [peel] steps cannot reach a leaf (peel = the group's minimum
     leaf depth), so they run without termination checks. *)
  [ Repeat (peel, array_step tile_size) ] @ array_generic tile_size

(* ---------------- sparse layout ---------------- *)

(* state = absolute slot; negative values encode [-(leaf index) - 1], and
   the next state simplifies to [child_ptr - child] when the children are
   leaves (child_ptr < 0). *)
let sparse_step tile_size =
  [ Iset (r_abs, Imov r_state) ]
  @ evaluate_tile tile_size
  @ [
      Iset (r_cptr, Iload (Child_ptrs, r_abs));
      If
        ( Ige (r_cptr, 0),
          [ Iset (r_state, Iadd (r_cptr, r_child)) ],
          [ Iset (r_state, Isub (r_cptr, r_child)) ] );
    ]

let sparse_leaf_fetch =
  [
    Iset (r_scratch, Iconst (-1));
    Iset (r_scratch, Isub (r_scratch, r_state));
    Fset (result_reg, Fload (Leaf_values, r_scratch));
  ]

let sparse_generic tile_size =
  [ While (Ige (r_state, 0), sparse_step tile_size) ] @ sparse_leaf_fetch

let sparse_unrolled tile_size depth =
  (* Uniform-depth group: exactly [depth] tile steps; the last one's child
     pointer is negative and the fused If computes the leaf code. Depth 0
     means a constant tree whose root state is already a leaf code. Each
     step carries the same [state >= 0] guard the peeled form uses: on a
     uniform-depth group the guard always holds before the final step, and
     it keeps the non-leaf precondition locally checkable instead of
     depending on the MIR-level uniformity argument (M002). *)
  if depth = 0 then sparse_leaf_fetch
  else
    [ Repeat (depth, [ If (Ige (r_state, 0), sparse_step tile_size, []) ]) ]
    @ sparse_leaf_fetch

let sparse_peeled tile_size peel =
  (* A walk may end exactly at the peel depth; each peeled step is guarded
     (same structure the closure backend uses). *)
  [ Repeat (peel, [ If (Ige (r_state, 0), sparse_step tile_size, []) ]) ]
  @ sparse_generic tile_size

(* ---------------- entry points ---------------- *)

let walk_program (lay : Layout.t) walk =
  let tile_size = lay.Layout.tile_size in
  let body =
    match (lay.Layout.kind, walk) with
    | Layout.Array_kind, Mir.Loop_walk -> array_generic tile_size
    | Layout.Array_kind, Mir.Unrolled_walk { depth } -> array_unrolled tile_size depth
    | Layout.Array_kind, Mir.Peeled_walk { peel } -> array_peeled tile_size peel
    | Layout.Sparse_kind, Mir.Loop_walk -> sparse_generic tile_size
    | Layout.Sparse_kind, Mir.Unrolled_walk { depth } -> sparse_unrolled tile_size depth
    | Layout.Sparse_kind, Mir.Peeled_walk { peel } -> sparse_peeled tile_size peel
  in
  let program =
    { tile_size; layout = lay.Layout.kind; body; num_iregs; num_fregs;
      num_vregs; lanes = 1 }
  in
  match check program with
  | [] -> program
  | d :: _ ->
    invalid_arg
      ("Reg_codegen: generated invalid program: " ^ Tb_diag.Diagnostic.to_string d)

(* ---------------- unroll-and-jam ---------------- *)

(* Jamming replicates the single-lane register file [lanes] times: lane l's
   copy of register r is [l * width + r], so lanes own disjoint register
   windows by construction (Alias re-derives this by dataflow rather than
   trusting it). Straight-line statements are interleaved in lockstep —
   the instruction-level mixing unroll-and-jam exists for — while control
   flow (While/If), whose condition is lane-private, stays per-lane. *)
let rename_stmt ~lane =
  map_regs
    ~ir:(fun r -> (lane * num_iregs) + r)
    ~fr:(fun r -> (lane * num_fregs) + r)
    ~vr:(fun r -> (lane * num_vregs) + r)

let rec jam_stmts ~lanes stmts =
  List.concat_map
    (fun s ->
      match s with
      | Repeat (n, body) -> [ Repeat (n, jam_stmts ~lanes body) ]
      | Iset _ | Fset _ | Vset _ | While _ | If _ ->
        List.init lanes (fun lane -> rename_stmt ~lane s))
    stmts

let jam_lanes (p : walk_program) ~lanes =
  if lanes <= 1 then p
  else if p.lanes <> 1 then invalid_arg "Reg_codegen.jam_lanes: already jammed"
  else
    let program =
      {
        p with
        body = jam_stmts ~lanes p.body;
        num_iregs = lanes * p.num_iregs;
        num_fregs = lanes * p.num_fregs;
        num_vregs = lanes * p.num_vregs;
        lanes;
      }
    in
    match check program with
    | [] -> program
    | d :: _ ->
      invalid_arg
        ("Reg_codegen: jammed program fails verification: "
        ^ Tb_diag.Diagnostic.to_string d)

let all_variants lay (mir : Mir.t) =
  List.mapi
    (fun i (plan : Mir.group_plan) -> (i, walk_program lay plan.Mir.walk))
    (Array.to_list mir.Mir.group_plans)

let jammed_variants lay (mir : Mir.t) =
  List.mapi
    (fun i (plan : Mir.group_plan) ->
      let p = walk_program lay plan.Mir.walk in
      (i, jam_lanes p ~lanes:(max 1 plan.Mir.interleave)))
    (Array.to_list mir.Mir.group_plans)
