(* Warning census: counts of a diagnostic family per (model, schedule)
   cell, with a JSON wire format and a baseline diff.

   A census is the measurable surface of an analysis: the lint and
   validate CLIs emit one each, the bench lint/validate experiments
   record them, and CI diffs the current census against a checked-in
   baseline so a precision regression fails the build.

   Two families are tracked today: the walk-bounds family (L010..L014,
   the relational LIR analysis) and the translation-validation family
   (T001..T004, {!Validate}). A family names its column order and the
   diff policy: [hard] codes are never acceptable, baseline or not;
   [soft] codes may not grow in any cell; anything else in [codes] is an
   informational fact and is counted but not diffed. *)

module D = Tb_diag.Diagnostic
module Json = Tb_util.Json

type family = {
  family_name : string;
  codes : string list;  (* column order *)
  hard : string list;  (* never acceptable *)
  soft : string list;  (* per-cell counts may not regress vs baseline *)
}

let lir_family =
  {
    family_name = "lir-bounds";
    codes = [ "L010"; "L011"; "L012"; "L013"; "L014" ];
    hard = [ "L010"; "L013" ];
    soft = [ "L011"; "L012" ];
    (* L014 is a proof fact: counted, not diffed. *)
  }

let validate_family =
  {
    family_name = "validate";
    codes = [ "T001"; "T002"; "T003"; "T004"; "T005" ];
    hard = [ "T004"; "T005" ];
    soft = [ "T001"; "T002"; "T003" ];
  }

let numeric_family =
  {
    family_name = "numeric";
    codes = [ "N001"; "N002"; "N003"; "N004" ];
    hard = [];
    (* All soft: a zoo model may legitimately fail to certify at a narrow
       width (the baseline records why), but certification may only get
       better — any per-cell growth fails the gate. *)
    soft = [ "N001"; "N002"; "N003"; "N004" ];
  }

let all_families = [ lir_family; validate_family; numeric_family ]

let family_of_code code =
  List.find_opt (fun f -> List.mem code f.codes) all_families

(* Default family, fixed by the original census consumers (lint). *)
let codes = lir_family.codes

type row = {
  model : string;
  schedule : string;
  counts : (string * int) list;  (* code -> count, [codes] order, no zeros *)
}

type t = row list

let row_of_diags ?(family = lir_family) ~model ~schedule diags =
  let count c =
    List.length (List.filter (fun d -> d.D.code = c) diags)
  in
  {
    model;
    schedule;
    counts =
      List.filter_map
        (fun c -> match count c with 0 -> None | n -> Some (c, n))
        family.codes;
  }

let get row code =
  try List.assoc code row.counts with Not_found -> 0

let totals ?(family = lir_family) (census : t) =
  List.map
    (fun c ->
      (c, List.fold_left (fun acc row -> acc + get row c) 0 census))
    family.codes

(* ---------------- JSON ---------------- *)

let to_json (census : t) =
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [
                   ("model", Json.Str row.model);
                   ("schedule", Json.Str row.schedule);
                   ( "counts",
                     Json.Obj
                       (List.map
                          (fun (c, n) -> (c, Json.Num (float_of_int n)))
                          row.counts) );
                 ])
             census) );
    ]

let of_json j =
  Json.member "rows" j |> Json.to_list
  |> List.map (fun r ->
         {
           model = Json.member "model" r |> Json.to_str;
           schedule = Json.member "schedule" r |> Json.to_str;
           counts =
             (match Json.member "counts" r with
             | Json.Obj kvs ->
               List.map (fun (c, n) -> (c, Json.to_int n)) kvs
             | _ -> raise (Json.Parse_error "census: counts must be an object"));
         })

let to_file path census =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~indent:true (to_json census)))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_json (Json.of_string (In_channel.input_all ic)))

(* ---------------- baseline diff ---------------- *)

(* CI contract, per family: [hard] findings are never acceptable,
   baseline or not; [soft] counts may not grow in any cell; the remaining
   codes are facts and are not diffed. *)
let diff ?(family = lir_family) ~baseline (current : t) =
  let key row = (row.model, row.schedule) in
  let base = Hashtbl.create (List.length baseline) in
  List.iter (fun row -> Hashtbl.replace base (key row) row) baseline;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun row ->
      List.iter
        (fun c ->
          if get row c > 0 then
            problem "%s / %s: %d %s error(s)" row.model row.schedule
              (get row c) c)
        family.hard;
      let soft_total r = List.fold_left (fun acc c -> acc + get r c) 0 family.soft in
      match Hashtbl.find_opt base (key row) with
      | None ->
        if soft_total row > 0 then
          problem
            "%s / %s: not in baseline with %s (regenerate the baseline)"
            row.model row.schedule
            (String.concat " "
               (List.map (fun c -> Printf.sprintf "%s=%d" c (get row c))
                  family.soft))
      | Some b ->
        List.iter
          (fun c ->
            if get row c > get b c then
              problem "%s / %s: %s regressed %d -> %d" row.model row.schedule
                c (get b c) (get row c))
          family.soft)
    current;
  let current_keys = Hashtbl.create (List.length current) in
  List.iter (fun row -> Hashtbl.replace current_keys (key row) ()) current;
  List.iter
    (fun row ->
      if not (Hashtbl.mem current_keys (key row)) then
        problem "%s / %s: in baseline but missing from this census" row.model
          row.schedule)
    baseline;
  List.rev !problems
