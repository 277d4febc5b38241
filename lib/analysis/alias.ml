(* Alias / register-group analysis for unroll-and-jam walks.

   A jammed program (Reg_codegen.jam_lanes) claims lane l owns the
   register window [l*width, (l+1)*width) of each file. This module does
   not trust that convention: it recomputes each statement's lane from the
   registers it actually reads and writes and reports an L013 lane
   collision whenever a statement straddles windows. On success the
   program provably factors into independent per-lane slices, and
   [project] extracts lane l as a plain single-lane program (registers
   renamed down to window 0) for precise, non-widened per-lane bounds
   analysis in Lir_check. *)

module D = Tb_diag.Diagnostic
open Tb_lir.Reg_ir

type widths = { wi : int; wf : int; wv : int }

let widths p =
  { wi = lane_width p; wf = lane_fwidth p; wv = lane_vwidth p }

(* Lanes touched by one statement, including nested control-flow bodies.
   Registers out of file range get a lane anyway; Reg_ir.check owns the
   range diagnostics (L001). *)
let stmt_lanes w s =
  let acc = ref [] in
  let touch width r =
    let lane = r / width in
    if not (List.mem lane !acc) then acc := lane :: !acc;
    r
  in
  ignore (map_regs ~ir:(touch w.wi) ~fr:(touch w.wf) ~vr:(touch w.wv) s);
  List.sort compare !acc

type result = {
  lanes : int;
  diags : D.t list;  (* L013 lane-collision errors; empty = partition holds *)
}

let check (p : walk_program) =
  if p.lanes <= 1 then { lanes = 1; diags = [] }
  else begin
    let diags = ref [] in
    let err path fmt =
      Printf.ksprintf
        (fun message ->
          diags := D.errorf ~level:D.Lir ~code:"L013" ~path "%s" message
                   :: !diags)
        fmt
    in
    if
      p.num_iregs mod p.lanes <> 0
      || p.num_fregs mod p.lanes <> 0
      || p.num_vregs mod p.lanes <> 0
    then
      err [] "register files (%d/%d/%d) not divisible into %d lane windows"
        p.num_iregs p.num_fregs p.num_vregs p.lanes
    else begin
      let w = widths p in
      let opno = ref (-1) in
      (* Repeat is the only construct whose body may mix lanes (lockstep
         interleaving); every other statement — including a While/If with
         its whole nested body — must stay inside one window. *)
      let rec go stmts =
        List.iter
          (fun s ->
            incr opno;
            match s with
            | Repeat (_, body) -> go body
            | _ -> (
              match stmt_lanes w s with
              | [] | [ _ ] -> ()
              | ls ->
                err
                  [ Printf.sprintf "op %d" !opno ]
                  "statement touches registers of lanes {%s}: jam lanes \
                   must not share registers"
                  (String.concat ", " (List.map string_of_int ls))))
          stmts
      in
      go p.body
    end;
    { lanes = p.lanes; diags = List.rev !diags }
  end

(* Extract lane [lane] as a single-lane program. Only meaningful when
   [check] reported no collision: statements are kept iff every register
   they touch is in the lane's windows, then renamed down to window 0 —
   which makes the projection of lane l literally comparable with the
   projection of lane 0. *)
let project (p : walk_program) ~lane =
  if p.lanes <= 1 then p
  else begin
    let w = widths p in
    let rename =
      map_regs
        ~ir:(fun r -> r - (lane * w.wi))
        ~fr:(fun r -> r - (lane * w.wf))
        ~vr:(fun r -> r - (lane * w.wv))
    in
    let rec keep stmts =
      List.filter_map
        (fun s ->
          match s with
          | Repeat (n, body) -> (
            match keep body with [] -> None | b -> Some (Repeat (n, b)))
          | _ -> (
            match stmt_lanes w s with
            | [ l ] when l = lane -> Some (rename s)
            | _ -> None))
        stmts
    in
    {
      p with
      body = keep p.body;
      num_iregs = w.wi;
      num_fregs = w.wf;
      num_vregs = w.wv;
      lanes = 1;
    }
  end
