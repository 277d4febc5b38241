let now_ns () = Int64.to_float (Monotonic_clock.now ())
let since_us t0 = (now_ns () -. t0) /. 1e3

let reads = 100_000

let check () =
  let prev = ref (Monotonic_clock.now ()) in
  let backwards = ref false in
  let finest = ref Int64.max_int in
  for _ = 2 to reads do
    let t = Monotonic_clock.now () in
    let d = Int64.sub t !prev in
    if Int64.compare d 0L < 0 then backwards := true
    else if Int64.compare d 0L > 0 && Int64.compare d !finest < 0 then
      finest := d;
    prev := t
  done;
  if !backwards then Error "monotonic clock went backwards"
  else if !finest = Int64.max_int then
    Error (Printf.sprintf "monotonic clock did not move in %d reads" reads)
  else
    let resolution_ns = Int64.to_float !finest in
    if resolution_ns >= 1000.0 then
      Error
        (Printf.sprintf "monotonic clock resolution %.0f ns is not below 1 us"
           resolution_ns)
    else Ok resolution_ns
