let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
      | Some kb -> Some (float_of_int kb /. 1024.0)
      | None -> scan ())
    | exception End_of_file -> None
  in
  let found = Fun.protect ~finally:(fun () -> close_in ic) scan in
  match found with
  | Some mb -> mb
  | None -> failwith "Proc.peak_rss_mb: no VmHWM in /proc/self/status"
