type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 64 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len
let to_array t = Array.sub t.data 0 t.len
let median xs = Tb_util.Stats.percentile xs 0.5
let p99 xs = Tb_util.Stats.percentile xs 0.99

let nearest_rank xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Sample.nearest_rank: empty array";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  sorted.(min n rank - 1)

let geomean = function
  | [] -> invalid_arg "Sample.geomean: empty list"
  | xs -> Tb_util.Stats.geomean (Array.of_list xs)

let tail_rank n =
  max ((n + 1) / 2) (min (n - 10) (int_of_float (ceil (0.9 *. float_of_int n))))

let cells_p50_tail cells =
  let medians = List.map median cells in
  let ratios =
    Array.concat (List.map2 (fun xs m -> Array.map (fun x -> x /. m) xs) cells medians)
  in
  Array.sort Float.compare ratios;
  let n = Array.length ratios in
  let rank = tail_rank n in
  let p50 = geomean medians in
  (p50, p50 *. ratios.(rank - 1), float_of_int rank /. float_of_int n)

let affine_fit points =
  (* Weighted least squares with w = 1/y^2: minimizes the sum of squared
     relative residuals. *)
  if List.length (List.sort_uniq compare (List.map fst points)) < 2 then
    invalid_arg "Sample.affine_fit: need two distinct x";
  let sw = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  List.iter
    (fun (x, y) ->
      if not (y > 0.0) then invalid_arg "Sample.affine_fit: non-positive y";
      let w = 1.0 /. (y *. y) in
      sw := !sw +. w;
      sx := !sx +. (w *. x);
      sy := !sy +. (w *. y);
      sxx := !sxx +. (w *. x *. x);
      sxy := !sxy +. (w *. x *. y))
    points;
  let det = (!sw *. !sxx) -. (!sx *. !sx) in
  let per_unit = ((!sw *. !sxy) -. (!sx *. !sy)) /. det in
  let fixed = (!sy -. (per_unit *. !sx)) /. !sw in
  (fixed, per_unit)

(* Bucket geometry of Tb_util.Stats.Histogram.create's defaults. *)
let hist_lo = 0.1
let hist_ratio = 10.0 ** (1.0 /. 16.0)

let same_histogram_bucket ~exact ~reported =
  if exact < hist_lo then reported <= hist_lo
  else begin
    let i = 1 + int_of_float (log (exact /. hist_lo) /. log hist_ratio) in
    let lower = hist_lo *. (hist_ratio ** float_of_int (i - 1)) in
    let upper = hist_lo *. (hist_ratio ** float_of_int i) in
    let eps = 1e-9 in
    reported >= lower *. (1.0 -. eps) && reported <= upper *. (1.0 +. eps)
  end
