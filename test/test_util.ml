open Helpers
module Prng = Tb_util.Prng
module Stats = Tb_util.Stats
module Json = Tb_util.Json
module Table = Tb_util.Table

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  check_bool "split differs from parent"
    false
    (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_int_range () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_prng_uniform_range () =
  let rng = Prng.create 2 in
  for _ = 1 to 1000 do
    let v = Prng.uniform rng in
    check_bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_uniform_mean () =
  let rng = Prng.create 3 in
  let xs = Array.init 10_000 (fun _ -> Prng.uniform rng) in
  check_bool "mean near 0.5" true (Float.abs (Stats.mean xs -. 0.5) < 0.02)

let test_prng_gaussian_moments () =
  let rng = Prng.create 4 in
  let xs = Array.init 20_000 (fun _ -> Prng.gaussian rng) in
  check_bool "mean near 0" true (Float.abs (Stats.mean xs) < 0.03);
  check_bool "stddev near 1" true (Float.abs (Stats.stddev xs -. 1.0) < 0.03)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 5 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_stats_mean () = check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_geomean_empty () = check_float "empty" 0.0 (Stats.geomean [||])

let test_stats_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_stats_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "median" 2.5 (Stats.percentile xs 0.5);
  check_float "min" 1.0 (Stats.percentile xs 0.0);
  check_float "max" 4.0 (Stats.percentile xs 1.0)

let test_stats_argminmax () =
  let xs = [| 3.0; 1.0; 4.0; 1.0; 5.0 |] in
  check_int "argmax" 4 (Stats.argmax xs);
  check_int "argmin" 1 (Stats.argmin xs)

let test_stats_kahan_sum () =
  (* 1 + 1e-16 * 10^8 would lose mass under naive summation. *)
  let xs = Array.make 10_000_001 1e-8 in
  xs.(0) <- 1.0;
  check_bool "kahan keeps precision" true
    (Float.abs (Stats.sum xs -. 1.1) < 1e-9)

let test_stats_neumaier_sum () =
  (* The adversarial cancellation vector: the incoming 1e100 dwarfs the
     running total, so plain Kahan loses the total's low bits and
     returns 0; Neumaier's branch compensates the other way round. *)
  let xs = [| 1.0; 1e100; 1.0; -1e100 |] in
  check_float "neumaier survives cancellation" 2.0 (Stats.neumaier_sum xs);
  check_bool "plain kahan loses the mass here" true
    (Stats.sum xs <> 2.0);
  (* Agrees with Kahan on the benign case. *)
  let ys = Array.make 10_000_001 1e-8 in
  ys.(0) <- 1.0;
  check_bool "benign case matches kahan" true
    (Float.abs (Stats.neumaier_sum ys -. 1.1) < 1e-9);
  check_float "empty" 0.0 (Stats.neumaier_sum [||]);
  (* Exact cancellation of permuted magnitudes. *)
  check_float "signed magnitudes cancel" 0.0
    (Stats.neumaier_sum [| 1e50; 3.5; -1e50; 2.5; -6.0 |])

let json_roundtrip j =
  Json.of_string (Json.to_string j)

let test_json_roundtrip_basic () =
  let j =
    Json.Obj
      [
        ("a", Json.Num 1.5);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\"y\n" ]);
        ("c", Json.Obj []);
        ("d", Json.Num (-0.0625));
      ]
  in
  check_bool "roundtrip" true (json_roundtrip j = j)

let test_json_float_precision () =
  let v = 0.1 +. 0.2 in
  match json_roundtrip (Json.Num v) with
  | Json.Num v' -> check_float "exact float" v v'
  | _ -> Alcotest.fail "expected number"

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" s)
    [ "{"; "[1,"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "";
      "{,}"; "[1,]"; "{\"a\":1,}"; "[1 2]"; "{\"a\":1 \"b\":2}"; "{\"a\"}";
      "-"; "1e"; "nul"; "]"; "\"\\x\""; "\"\\u12\""; "\"\\"; "{\"k\\u0\":1}" ]

let test_json_indent_parses () =
  let j = Json.Obj [ ("xs", Json.List [ Json.Num 1.0; Json.Num 2.0 ]) ] in
  check_bool "indented output parses" true
    (Json.of_string (Json.to_string ~indent:true j) = j)

let test_json_accessors () =
  let j = Json.of_string {|{"n": 3, "s": "hi", "l": [1], "b": false}|} in
  check_int "int" 3 Json.(to_int (member "n" j));
  check_string "str" "hi" Json.(to_str (member "s" j));
  check_int "list" 1 (List.length Json.(to_list (member "l" j)));
  check_bool "bool" false Json.(to_bool (member "b" j));
  Alcotest.check_raises "missing member" (Json.Parse_error "missing field \"zz\"")
    (fun () -> ignore (Json.member "zz" j))

let test_json_unicode_escape () =
  match Json.of_string {|"Aé"|} with
  | Json.Str s -> check_string "utf8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "expected string"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "x"; "1.00" ];
  Table.add_sep t;
  Table.add_row t [ "longer-name"; "2.50" ];
  let s = Table.render t in
  check_bool "contains header" true
    (String.length s > 0 && contains s "name" && contains s "longer-name")

let test_table_rejects_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "cell count"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_timer_measures () =
  let r = Tb_util.Timer.measure ~warmup:0 ~min_iters:3 ~min_time_s:0.0 (fun () -> ()) in
  check_bool "iterations" true (r.iterations >= 3);
  check_bool "mean nonneg" true (r.mean_s >= 0.0)

let test_timer_now_monotonic () =
  let prev = ref (Tb_util.Timer.now ()) in
  let backwards = ref 0 in
  for _ = 2 to 100_000 do
    let t = Tb_util.Timer.now () in
    if t < !prev then incr backwards;
    prev := t
  done;
  check_int "reads that went backwards" 0 !backwards

let suite =
  [
    quick "prng deterministic" test_prng_deterministic;
    quick "prng split independent" test_prng_split_independent;
    quick "prng int range" test_prng_int_range;
    quick "prng uniform range" test_prng_uniform_range;
    quick "prng uniform mean" test_prng_uniform_mean;
    quick "prng gaussian moments" test_prng_gaussian_moments;
    quick "prng shuffle permutation" test_prng_shuffle_permutation;
    quick "stats mean" test_stats_mean;
    quick "stats geomean" test_stats_geomean;
    quick "stats geomean empty" test_stats_geomean_empty;
    quick "stats geomean rejects nonpositive" test_stats_geomean_rejects_nonpositive;
    quick "stats percentile" test_stats_percentile;
    quick "stats argmin/argmax" test_stats_argminmax;
    quick "stats kahan sum" test_stats_kahan_sum;
    quick "stats neumaier sum" test_stats_neumaier_sum;
    quick "json roundtrip basic" test_json_roundtrip_basic;
    quick "json float precision" test_json_float_precision;
    quick "json parse errors" test_json_parse_errors;
    quick "json indented output parses" test_json_indent_parses;
    quick "json accessors" test_json_accessors;
    quick "json unicode escape" test_json_unicode_escape;
    quick "table render" test_table_render;
    quick "table rejects mismatch" test_table_rejects_mismatch;
    quick "timer measures" test_timer_measures;
    quick "timer now never decreases" test_timer_now_monotonic;
  ]
