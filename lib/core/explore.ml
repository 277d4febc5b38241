module Schedule = Tb_hir.Schedule

type result = {
  schedule : Schedule.t;
  perf : Perf.t;
  evaluated : int;
}

let evaluate ~target ?profiles ?sample ?threads forest schedule rows =
  let lowered, _ =
    Result.get_ok (Passman.lower ~mode:No_verify ?profiles forest schedule)
  in
  Perf.simulate ~target ?threads ?sample lowered rows

let better a b = a.Perf.cycles_per_row < b.Perf.cycles_per_row

(* Count one evaluation. Deep probability-tiled chains can overflow the
   array layout's implicit indexing; treat such candidates as
   infeasible. *)
let scorer ~target ?profiles ?sample ?threads forest rows =
  let evaluated = ref 0 in
  let score schedule =
    incr evaluated;
    match evaluate ~target ?profiles ?sample ?threads forest schedule rows with
    | perf -> Some perf
    | exception Invalid_argument _ -> None
  in
  (evaluated, score)

let search ~target ?profiles ?sample ?threads forest rows candidates =
  let evaluated, score = scorer ~target ?profiles ?sample ?threads forest rows in
  let best =
    List.fold_left
      (fun best schedule ->
        match score schedule with
        | None -> best
        | Some perf -> (
          match best with
          | Some (_, bp) when not (better perf bp) -> best
          | Some _ | None -> Some (schedule, perf)))
      None candidates
  in
  match best with
  | None -> invalid_arg "Explore: no feasible schedule"
  | Some (schedule, perf) -> { schedule; perf; evaluated = !evaluated }

let exhaustive ~target ?profiles ?sample ?threads ?(grid = Schedule.table2_grid)
    forest rows =
  search ~target ?profiles ?sample ?threads forest rows grid

let greedy ~target ?profiles ?sample ?threads forest rows =
  let evaluated, score = scorer ~target ?profiles ?sample ?threads forest rows in
  (* Coordinate descent: sweep each axis holding the others fixed. *)
  let current = ref { Schedule.default with interleave = 1 } in
  let current_perf = ref None in
  let consider schedule =
    match score schedule with
    | None -> ()
    | Some perf -> (
      match !current_perf with
      | Some bp when not (better perf bp) -> ()
      | Some _ | None ->
        current := schedule;
        current_perf := Some perf)
  in
  let sweep variants = List.iter (fun v -> consider (v !current)) variants in
  consider !current;
  sweep
    [
      (fun s -> { s with Schedule.loop_order = Schedule.One_tree_at_a_time });
      (fun s -> { s with Schedule.loop_order = Schedule.One_row_at_a_time });
    ];
  (* Tile size and interleave interact strongly (interleaving is what
     hides the vector step's long dependency chain), so sweep them
     jointly. *)
  sweep
    (List.concat_map
       (fun nt ->
         List.map
           (fun il (s : Schedule.t) ->
             {
               s with
               Schedule.tile_size = nt;
               interleave = il;
               layout =
                 (if nt >= 4 then Schedule.Sparse_layout else Schedule.Array_layout);
             })
           [ 1; 4; 8 ])
       [ 1; 2; 4; 8 ]);
  sweep
    [
      (fun s -> { s with Schedule.tiling = Schedule.Basic });
      (fun s -> { s with Schedule.tiling = Schedule.Probability_based; alpha = 0.05 });
      (fun s -> { s with Schedule.tiling = Schedule.Probability_based; alpha = 0.075 });
      (fun s -> { s with Schedule.tiling = Schedule.Probability_based; alpha = 0.1 });
    ];
  sweep
    [
      (fun s -> { s with Schedule.pad_and_unroll = true; peel = true });
      (fun s -> { s with Schedule.pad_and_unroll = false; peel = true });
      (fun s -> { s with Schedule.pad_and_unroll = false; peel = false });
    ];
  sweep
    (List.map
       (fun il (s : Schedule.t) -> { s with Schedule.interleave = il })
       [ 1; 2; 4; 8 ]);
  sweep
    [
      (fun s -> { s with Schedule.layout = Schedule.Sparse_layout });
      (fun s -> { s with Schedule.layout = Schedule.Array_layout });
    ];
  match !current_perf with
  | None -> invalid_arg "Explore.greedy: no feasible schedule"
  | Some perf -> { schedule = !current; perf; evaluated = !evaluated }

(* ---------------- post-search calibration guard ---------------- *)

module Cost_check = Tb_analysis.Cost_check

let check_champion ~target ?profiles ?sample ?(rivals = Cost_check.reduced_grid)
    ?tol forest rows result =
  (* Re-rank the champion against the rival set with the measured side of
     the calibration lint (full-batch instrumented counts + JIT wall
     clock); a C001 finding means the simulated search picked a schedule
     real execution disagrees with. Rivals compile through the verified
     pipeline so a miscompiled candidate can't masquerade as "faster". *)
  let grid =
    result.schedule
    :: List.filter (fun s -> s <> result.schedule) rivals
  in
  let compile schedule =
    (* One whole-program Tbcheck per rival instead of Passman's
       Verify_each: the guard needs "no miscompile", not the per-pass
       translation validation that would dominate its run time. *)
    let c, _ =
      Result.get_ok
        (Passman.run ~mode:No_verify ?profiles ~backend:`Threaded ~target
           (Float_tier []) forest schedule)
    in
    let ds = Tb_analysis.Tbcheck.check_lowered c.Passman.lowered in
    if Tb_diag.Diagnostic.has_errors ds then
      Error (Tb_diag.Diagnostic.summary ds)
    else Ok (c.Passman.lowered, c.Passman.predict)
  in
  let report =
    Cost_check.calibrate ~target ?tol ?sample ~compile
      ~name:"champion-guard" ~grid rows
  in
  (report, List.filter (fun d -> d.Tb_diag.Diagnostic.code = "C001") report.Cost_check.findings)
