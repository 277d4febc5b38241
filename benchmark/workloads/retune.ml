(* Regenerate the pinned tuned-1t schedules. The greedy search takes
   seconds per model, so it stays out of every benchmark run; the files
   are checked in so both sides of a comparison run the same program. *)

let run ~models ~dir =
  List.iter
    (fun name ->
      let m = Models.get models name in
      let rows = Array.sub m.Models.train 0 (min 512 (Array.length m.Models.train)) in
      let result =
        Tb_core.Explore.greedy ~target:Tb_cpu.Config.intel_rocket_lake
          ~profiles:m.Models.profiles ~threads:1 m.Models.forest rows
      in
      let schedule, _ =
        Tb_hir.Schedule.clamp_threads ~max_threads:1 result.Tb_core.Explore.schedule
      in
      Tb_hir.Schedule.to_file (Models.schedule_path dir name) schedule;
      Printf.printf "%-12s %s (%d candidates)\n%!" name
        (Tb_hir.Schedule.to_string schedule)
        result.Tb_core.Explore.evaluated)
    Cells.zoo
