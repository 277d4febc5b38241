(* 512 complete trees of depth 10 over 32 features, 2 rows per call:
   about 12 MB of thresholds, features and leaves — past the private
   caches, like the larger zoo models — so the probe slows down with
   both a slower core and a contended cache. Built once from a fixed
   seed. A smaller, cache-resident probe missed the second kind of
   slowdown. *)
let trees = 512
let depth = 10
let internal = (1 lsl depth) - 1
let features = 32
let rows = 2

let thresholds, feature_of, leaves, batch =
  let rng = Tb_util.Prng.create 20221001 in
  let thresholds =
    Array.init (trees * internal) (fun _ -> Tb_util.Prng.gaussian rng)
  in
  let feature_of =
    Array.init (trees * internal) (fun _ -> Tb_util.Prng.int rng features)
  in
  let leaves =
    Array.init (trees * (internal + 1)) (fun _ -> Tb_util.Prng.gaussian rng)
  in
  let batch =
    Array.init rows (fun _ ->
        Array.init features (fun _ -> Tb_util.Prng.gaussian rng))
  in
  (thresholds, feature_of, leaves, batch)

(* Keeps the walk from being optimized away; a float array stores its
   element unboxed, so the store allocates nothing. *)
let sink = [| 0.0 |]

let call () =
  let acc = ref 0.0 in
  for r = 0 to rows - 1 do
    let row = batch.(r) in
    for t = 0 to trees - 1 do
      let base = t * internal in
      let node = ref 0 in
      for _ = 1 to depth do
        let i = base + !node in
        node :=
          (2 * !node) + if row.(feature_of.(i)) < thresholds.(i) then 1 else 2
      done;
      acc := !acc +. leaves.((t * (internal + 1)) + !node - internal)
    done
  done;
  sink.(0) <- !acc

let nominal_us = 110.0

let burst () =
  let times = Sample.create () in
  let t0 = Clock.now_ns () in
  while Sample.length times < 3 || Clock.since_us t0 < 2000.0 do
    let t = Clock.now_ns () in
    call ();
    Sample.add times (Clock.since_us t)
  done;
  nominal_us /. Sample.median (Sample.to_array times)
