type result = {
  iterations : int;
  total_s : float;
  mean_s : float;
  min_s : float;
  max_s : float;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time_once f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let measure ?(warmup = 2) ?(min_iters = 5) ?(min_time_s = 0.2) f =
  for _ = 1 to warmup do
    f ()
  done;
  let times = ref [] in
  let total = ref 0.0 in
  let iters = ref 0 in
  while !iters < min_iters || !total < min_time_s do
    let t0 = now () in
    f ();
    let dt = now () -. t0 in
    times := dt :: !times;
    total := !total +. dt;
    incr iters
  done;
  let times = Array.of_list !times in
  let lo, hi = Stats.min_max times in
  {
    iterations = !iters;
    total_s = !total;
    mean_s = !total /. float_of_int !iters;
    min_s = lo;
    max_s = hi;
  }
