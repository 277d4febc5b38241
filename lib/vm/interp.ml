module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Mir = Tb_mir.Mir
module Schedule = Tb_hir.Schedule
module Reorder = Tb_hir.Reorder
open Tb_lir.Reg_ir

type predictor = float array array -> float array array

(* Machine state: one register file per class, reused across walks. *)
type machine = {
  iregs : int array;
  fregs : float array;
  (* vector registers: int and float lanes in separate stores, selected by
     the instruction's type (the verifier guarantees consistency) *)
  vi : int array array;
  vf : float array array;
  mutable row : float array;
  lay : Layout.t;
  lut_width : int;  (* entries per LUT row: 2^tile_size *)
  trace : buffer -> int -> unit;
      (* observes every concrete buffer access (vector loads per lane, LUT
         accesses by flat index) — the soundness harness's probe *)
}

let make_machine ?(trace = fun _ _ -> ()) (p : walk_program) lay =
  let nt = p.tile_size in
  {
    iregs = Array.make p.num_iregs 0;
    fregs = Array.make p.num_fregs 0.0;
    vi = Array.init p.num_vregs (fun _ -> Array.make nt 0);
    vf = Array.init p.num_vregs (fun _ -> Array.make nt 0.0);
    row = [||];
    lay;
    lut_width = 1 lsl nt;
    trace;
  }

let iload m buffer idx =
  m.trace buffer idx;
  match buffer with
  | Shape_ids -> m.lay.Layout.shape_ids.(idx)
  | Child_ptrs -> m.lay.Layout.child_ptr.(idx)
  | Feature_ids -> m.lay.Layout.features.(idx)
  | Lut -> m.lay.Layout.lut.(idx / m.lut_width).(idx mod m.lut_width)
  | Tree_roots -> m.lay.Layout.tree_root.(idx)
  | Row ->
    (* An integer row load truncates; on a quantized row the stored
       values are integer-valued floats (Layout.quantize_row), so the
       truncation is exact. *)
    int_of_float m.row.(idx)
  | Thresholds | Leaf_values ->
    invalid_arg "Interp: integer load from a float buffer"

let fload m buffer idx =
  m.trace buffer idx;
  match buffer with
  | Thresholds -> m.lay.Layout.thresholds.(idx)
  | Leaf_values -> m.lay.Layout.leaf_values.(idx)
  | Row -> m.row.(idx)
  | Shape_ids | Child_ptrs | Feature_ids | Lut | Tree_roots ->
    invalid_arg "Interp: float load from an integer buffer"

let eval_iexpr m = function
  | Iconst c -> c
  | Imov a -> m.iregs.(a)
  | Iadd (a, b) -> m.iregs.(a) + m.iregs.(b)
  | Isub (a, b) -> m.iregs.(a) - m.iregs.(b)
  | Imul_const (a, c) -> m.iregs.(a) * c
  | Iadd_const (a, c) -> m.iregs.(a) + c
  | Iload (b, a) -> iload m b m.iregs.(a)
  | Movemask v ->
    let lanes = m.vi.(v) in
    let nt = Array.length lanes in
    let bits = ref 0 in
    for lane = 0 to nt - 1 do
      bits := !bits lor (lanes.(lane) lsl (nt - 1 - lane))
    done;
    !bits

let eval_cond m = function
  | Ige (r, c) -> m.iregs.(r) >= c
  | Ieq_load (b, r, c) -> iload m b m.iregs.(r) = c

let exec_vexpr m dst = function
  | Vload_f (b, a) ->
    let base = m.iregs.(a) in
    let lanes = m.vf.(dst) in
    for lane = 0 to Array.length lanes - 1 do
      lanes.(lane) <- fload m b (base + lane)
    done
  | Vload_i (b, a) ->
    let base = m.iregs.(a) in
    let lanes = m.vi.(dst) in
    for lane = 0 to Array.length lanes - 1 do
      lanes.(lane) <- iload m b (base + lane)
    done
  | Gather (b, idx) ->
    let indices = m.vi.(idx) in
    let lanes = m.vf.(dst) in
    for lane = 0 to Array.length lanes - 1 do
      lanes.(lane) <- fload m b indices.(lane)
    done
  | Vcmp_lt (a, b) ->
    let xa = m.vf.(a) and xb = m.vf.(b) in
    let lanes = m.vi.(dst) in
    for lane = 0 to Array.length lanes - 1 do
      lanes.(lane) <- (if xa.(lane) < xb.(lane) then 1 else 0)
    done

let rec exec_stmts m body =
  List.iter
    (fun stmt ->
      match stmt with
      | Iset (r, e) -> m.iregs.(r) <- eval_iexpr m e
      | Fset (r, Fload (b, a)) -> m.fregs.(r) <- fload m b m.iregs.(a)
      | Vset (r, e) -> exec_vexpr m r e
      | While (cond, body) ->
        while eval_cond m cond do
          exec_stmts m body
        done
      | If (cond, t, e) -> exec_stmts m (if eval_cond m cond then t else e)
      | Repeat (n, body) ->
        for _ = 1 to n do
          exec_stmts m body
        done)
    body

let run_walk_machine m (p : walk_program) ~tree ~row =
  m.row <- row;
  m.iregs.(base_reg) <- m.lay.Layout.tree_root.(tree);
  (* Array layout: cursor starts at local slot 0; sparse: at the root slot
     (or its leaf code for constant trees). *)
  m.iregs.(state_reg) <-
    (match m.lay.Layout.kind with
    | Layout.Array_kind -> 0
    | Layout.Sparse_kind -> m.lay.Layout.tree_root.(tree));
  exec_stmts m p.body;
  m.fregs.(result_reg)

let run_walk p (lp : Lower.t) ~tree ~row =
  let m = make_machine p lp.Lower.layout in
  run_walk_machine m p ~tree ~row

let compile ?trace (lp : Lower.t) =
  let lay = lp.Lower.layout in
  let variants = Tb_lir.Reg_codegen.all_variants lay lp.Lower.mir in
  let machines =
    Array.of_list
      (List.map
         (fun (g, p) ->
           let trace =
             Option.map (fun t buffer idx -> t ~group:g buffer idx) trace
           in
           (p, make_machine ?trace p lay))
         variants)
  in
  fun rows ->
    let n = Array.length rows in
    let out =
      Array.init n (fun _ -> Array.make lp.Lower.num_outputs lp.Lower.base_score)
    in
    let plans = lp.Lower.mir.Mir.group_plans in
    let walk_group gi tree row =
      let p, m = machines.(gi) in
      run_walk_machine m p ~tree ~row
    in
    (match lp.Lower.mir.Mir.loop_order with
    | Schedule.One_tree_at_a_time ->
      Array.iteri
        (fun gi (plan : Mir.group_plan) ->
          Array.iter
            (fun tree ->
              let cls = lp.Lower.tree_class.(tree) in
              for i = 0 to n - 1 do
                out.(i).(cls) <- out.(i).(cls) +. walk_group gi tree rows.(i)
              done)
            plan.Mir.group.Reorder.positions)
        plans
    | Schedule.One_row_at_a_time ->
      for i = 0 to n - 1 do
        Array.iteri
          (fun gi (plan : Mir.group_plan) ->
            Array.iter
              (fun tree ->
                let cls = lp.Lower.tree_class.(tree) in
                out.(i).(cls) <- out.(i).(cls) +. walk_group gi tree rows.(i))
              plan.Mir.group.Reorder.positions)
          plans
      done);
    out

let dump_programs (lp : Lower.t) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (g, p) ->
      Buffer.add_string buf (Printf.sprintf "-- group %d --\n" g);
      Buffer.add_string buf (to_string p);
      Buffer.add_char buf '\n')
    (Tb_lir.Reg_codegen.all_variants lp.Lower.layout lp.Lower.mir);
  Buffer.contents buf
