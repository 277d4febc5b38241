type buffer =
  | Thresholds
  | Feature_ids
  | Shape_ids
  | Child_ptrs
  | Leaf_values
  | Lut
  | Tree_roots
  | Row

type ireg = int
type freg = int
type vreg = int

type iexpr =
  | Iconst of int
  | Imov of ireg
  | Iadd of ireg * ireg
  | Imul_const of ireg * int
  | Iadd_const of ireg * int
  | Isub of ireg * ireg
  | Iload of buffer * ireg
  | Movemask of vreg

type fexpr =
  | Fload of buffer * ireg

type vexpr =
  | Vload_f of buffer * ireg
  | Vload_i of buffer * ireg
  | Gather of buffer * vreg
  | Vcmp_lt of vreg * vreg

type cond =
  | Ige of ireg * int
  | Ieq_load of buffer * ireg * int

type stmt =
  | Iset of ireg * iexpr
  | Fset of freg * fexpr
  | Vset of vreg * vexpr
  | While of cond * stmt list
  | If of cond * stmt list * stmt list
  | Repeat of int * stmt list

type walk_program = {
  tile_size : int;
  layout : Layout.kind;
  body : stmt list;
  num_iregs : int;
  num_fregs : int;
  num_vregs : int;
  lanes : int;
}

let state_reg = 0
let base_reg = 1
let result_reg = 0

(* Jammed programs replicate a single-lane register file [lanes] times;
   lane l's copy of register r is [l * (num_Xregs / lanes) + r]. *)
let lane_width p = p.num_iregs / max 1 p.lanes
let lane_fwidth p = p.num_fregs / max 1 p.lanes
let lane_vwidth p = p.num_vregs / max 1 p.lanes

(* The one register renamer: every register operand of a statement,
   nested bodies included, goes through the map of its file. Jamming,
   lane projection and the lane-ownership visitor are all built on it. *)
let rec map_regs ~ir ~fr ~vr stmt =
  let iexpr = function
    | Iconst c -> Iconst c
    | Imov a -> Imov (ir a)
    | Iadd (a, b) -> Iadd (ir a, ir b)
    | Imul_const (a, c) -> Imul_const (ir a, c)
    | Iadd_const (a, c) -> Iadd_const (ir a, c)
    | Isub (a, b) -> Isub (ir a, ir b)
    | Iload (b, a) -> Iload (b, ir a)
    | Movemask v -> Movemask (vr v)
  in
  let fexpr = function Fload (b, a) -> Fload (b, ir a) in
  let vexpr = function
    | Vload_f (b, a) -> Vload_f (b, ir a)
    | Vload_i (b, a) -> Vload_i (b, ir a)
    | Gather (b, v) -> Gather (b, vr v)
    | Vcmp_lt (a, b) -> Vcmp_lt (vr a, vr b)
  in
  let cond = function
    | Ige (r, c) -> Ige (ir r, c)
    | Ieq_load (b, r, c) -> Ieq_load (b, ir r, c)
  in
  let body = List.map (map_regs ~ir ~fr ~vr) in
  match stmt with
  | Iset (r, e) -> Iset (ir r, iexpr e)
  | Fset (r, e) -> Fset (fr r, fexpr e)
  | Vset (r, e) -> Vset (vr r, vexpr e)
  | While (c, b) -> While (cond c, body b)
  | If (c, t, e) -> If (cond c, body t, body e)
  | Repeat (n, b) -> Repeat (n, body b)

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

(* Vector registers carry a lane type; the verifier tracks it. *)
type vkind = VInt | VFloat

module D = Tb_diag.Diagnostic

(* Structured register-discipline check. Findings are collected (with
   error recovery so one fault does not hide the rest) instead of
   short-circuiting on the first violation. Statements are addressed by
   their static pre-order index ("op N"). *)
let check p =
  let diags = ref [] in
  let opno = ref (-1) in
  let here () = [ Printf.sprintf "op %d" !opno ] in
  let err code fmt = Printf.ksprintf (fun message ->
      diags := D.errorf ~level:D.Lir ~code ~path:(here ()) "%s" message :: !diags) fmt
  in
  let check_ireg ~defined r ~use =
    if r < 0 || r >= p.num_iregs then err "L001" "ireg %d out of range (file size %d)" r p.num_iregs
    else if use && not defined.(r) then err "L002" "ireg %d used before assignment" r
  in
  let rec go stmts (di, dv) =
    match stmts with
    | [] -> (di, dv)
    | stmt :: rest ->
      incr opno;
      let state =
        match stmt with
        | Iset (r, e) ->
          check_ireg ~defined:di r ~use:false;
          (match e with
          | Iconst _ -> ()
          | Imov a | Imul_const (a, _) | Iadd_const (a, _)
          | Iload (_, a) ->
            check_ireg ~defined:di a ~use:true
          | Iadd (a, b) | Isub (a, b) ->
            check_ireg ~defined:di a ~use:true;
            check_ireg ~defined:di b ~use:true
          | Movemask v -> (
            if v < 0 || v >= p.num_vregs then
              err "L001" "vreg %d out of range (file size %d)" v p.num_vregs
            else
              match dv.(v) with
              | Some VInt -> ()
              | Some VFloat -> err "L003" "movemask on float vector v%d" v
              | None -> err "L002" "vreg %d used before assignment" v));
          if r >= 0 && r < p.num_iregs then begin
            let di = Array.copy di in
            di.(r) <- true;
            (di, dv)
          end
          else (di, dv)
        | Fset (r, Fload (_, a)) ->
          if r < 0 || r >= p.num_fregs then
            err "L001" "freg %d out of range (file size %d)" r p.num_fregs;
          check_ireg ~defined:di a ~use:true;
          (di, dv)
        | Vset (r, e) ->
          if r < 0 || r >= p.num_vregs then begin
            err "L001" "vreg %d out of range (file size %d)" r p.num_vregs;
            (di, dv)
          end
          else begin
            let use_v v expected =
              if v < 0 || v >= p.num_vregs then
                err "L001" "vreg %d out of range (file size %d)" v p.num_vregs
              else
                match dv.(v) with
                | Some k when k = expected -> ()
                | Some _ ->
                  err "L003" "vreg %d lane-type mismatch (expected %s lanes)" v
                    (match expected with VInt -> "int" | VFloat -> "float")
                | None -> err "L002" "vreg %d used before assignment" v
            in
            let kind =
              match e with
              | Vload_f (_, a) ->
                check_ireg ~defined:di a ~use:true;
                VFloat
              | Vload_i (_, a) ->
                check_ireg ~defined:di a ~use:true;
                VInt
              | Gather (_, idx) ->
                use_v idx VInt;
                VFloat
              | Vcmp_lt (a, b) ->
                use_v a VFloat;
                use_v b VFloat;
                VInt
            in
            let dv = Array.copy dv in
            dv.(r) <- Some kind;
            (di, dv)
          end
        | While (cond, body) ->
          (match cond with
          | Ige (r, _) | Ieq_load (_, r, _) -> check_ireg ~defined:di r ~use:true);
          (* The body may not execute: definitions inside don't escape. *)
          let (_ : bool array * vkind option array) =
            go body (Array.copy di, Array.copy dv)
          in
          (di, dv)
        | Repeat (n, body) ->
          if n < 0 then begin
            err "L004" "negative repeat count %d" n;
            (di, dv)
          end
          else if n = 0 then (di, dv)
          else go body (di, dv) (* executes at least once when n >= 1 *)
        | If (cond, then_, else_) ->
          (match cond with
          | Ige (r, _) | Ieq_load (_, r, _) -> check_ireg ~defined:di r ~use:true);
          let dit, dvt = go then_ (Array.copy di, Array.copy dv) in
          let die, dve = go else_ (Array.copy di, Array.copy dv) in
          (* Joins take the intersection: defined only if defined on both
             paths, lane type kept only when both paths agree. *)
          let di' = Array.mapi (fun i a -> a && die.(i)) dit in
          let dv' =
            Array.mapi (fun i a -> if a = dve.(i) then a else None) dvt
          in
          (di', dv')
      in
      go rest state
  in
  let di = Array.make (max 1 p.num_iregs) false in
  (* Walk inputs: state and base are set up by the driver — once per jam
     lane, at the lane's window offset. *)
  let w = lane_width p in
  for lane = 0 to max 1 p.lanes - 1 do
    let off = lane * w in
    if p.num_iregs > off + state_reg then di.(off + state_reg) <- true;
    if p.num_iregs > off + base_reg then di.(off + base_reg) <- true
  done;
  let dv = Array.make (max 1 p.num_vregs) None in
  let (_ : bool array * vkind option array) = go p.body (di, dv) in
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let buffer_name = function
  | Thresholds -> "thresholds"
  | Feature_ids -> "featureIds"
  | Shape_ids -> "shapeIds"
  | Child_ptrs -> "childPtrs"
  | Leaf_values -> "leafValues"
  | Lut -> "LUT"
  | Tree_roots -> "treeRoots"
  | Row -> "row"

let iexpr_str = function
  | Iconst c -> string_of_int c
  | Imov a -> Printf.sprintf "i%d" a
  | Iadd (a, b) -> Printf.sprintf "i%d + i%d" a b
  | Imul_const (a, c) -> Printf.sprintf "i%d * %d" a c
  | Iadd_const (a, c) -> Printf.sprintf "i%d + %d" a c
  | Isub (a, b) -> Printf.sprintf "i%d - i%d" a b
  | Iload (b, a) -> Printf.sprintf "load.%s [i%d]" (buffer_name b) a
  | Movemask v -> Printf.sprintf "movemask v%d" v

let fexpr_str = function
  | Fload (b, a) -> Printf.sprintf "load.%s [i%d]" (buffer_name b) a

let vexpr_str = function
  | Vload_f (b, a) -> Printf.sprintf "vload.f32 %s [i%d]" (buffer_name b) a
  | Vload_i (b, a) -> Printf.sprintf "vload.i32 %s [i%d]" (buffer_name b) a
  | Gather (b, v) -> Printf.sprintf "gather.%s [v%d]" (buffer_name b) v
  | Vcmp_lt (a, b) -> Printf.sprintf "vcmp.lt v%d, v%d" a b

let cond_str = function
  | Ige (r, c) -> Printf.sprintf "i%d >= %d" r c
  | Ieq_load (b, r, c) -> Printf.sprintf "%s[i%d] == %d" (buffer_name b) r c

let pp fmt p =
  let rec stmts indent body =
    List.iter
      (fun stmt ->
        let pad = String.make indent ' ' in
        match stmt with
        | Iset (r, e) -> Format.fprintf fmt "%si%d <- %s@," pad r (iexpr_str e)
        | Fset (r, e) -> Format.fprintf fmt "%sf%d <- %s@," pad r (fexpr_str e)
        | Vset (r, e) -> Format.fprintf fmt "%sv%d <- %s@," pad r (vexpr_str e)
        | While (c, body) ->
          Format.fprintf fmt "%swhile (%s) {@," pad (cond_str c);
          stmts (indent + 2) body;
          Format.fprintf fmt "%s}@," pad
        | If (c, t, e) ->
          Format.fprintf fmt "%sif (%s) {@," pad (cond_str c);
          stmts (indent + 2) t;
          if e <> [] then begin
            Format.fprintf fmt "%s} else {@," pad;
            stmts (indent + 2) e
          end;
          Format.fprintf fmt "%s}@," pad
        | Repeat (n, body) ->
          Format.fprintf fmt "%srepeat %d {  // fully unrolled@," pad n;
          stmts (indent + 2) body;
          Format.fprintf fmt "%s}@," pad)
      body
  in
  Format.fprintf fmt "@[<v>walk(%s, tile_size=%d%s):@,"
    (match p.layout with Layout.Array_kind -> "array" | Layout.Sparse_kind -> "sparse")
    p.tile_size
    (if p.lanes > 1 then Printf.sprintf ", lanes=%d" p.lanes else "");
  stmts 2 p.body;
  Format.fprintf fmt "@]"

let to_string p = Format.asprintf "%a" pp p

let count_ops p ~static =
  let rec count body =
    List.fold_left
      (fun acc stmt ->
        acc
        +
        match stmt with
        | Iset _ | Fset _ | Vset _ -> 1
        | While (_, b) -> 1 + count b
        | If (_, t, e) -> 1 + count t + count e
        | Repeat (n, b) -> if static then count b else n * count b)
      0 body
  in
  count p.body
