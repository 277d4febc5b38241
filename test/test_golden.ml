(* Golden prediction fixtures: every zoo model's default-schedule output on
   a pinned set of rows, checked in under test/golden/. A lowering-pipeline
   refactor that silently changes numerics fails here before it reaches the
   accuracy experiments.

   A fixture stores a row seed (rows regenerate deterministically from our
   own Prng) and the expected margins, printed with %.17g so the round trip
   is exact and the JIT must reproduce them bit for bit; regenerate after
   an *intended* change with
   [dune exec test/gen_golden.exe] from the repo root. The models
   themselves live in the _models/ cache, which dune cannot copy into the
   test sandbox (underscore dirs are invisible to it), so we reach for the
   repo root by walking up from the cwd and skip any model whose cache
   file is absent. *)

open Helpers
module Json = Tb_util.Json
module Forest = Tb_model.Forest
module Prng = Tb_util.Prng
module Schedule = Tb_hir.Schedule

let names =
  [ "abalone"; "airline"; "airline-ohe"; "covtype"; "epsilon"; "letter";
    "higgs"; "year" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden name () =
  let fixture =
    Json.of_string (read_file (Filename.concat golden_dir (name ^ ".json")))
  in
  let seed = Json.to_int (Json.member "seed" fixture) in
  let num_rows = Json.to_int (Json.member "num_rows" fixture) in
  let want =
    Json.to_list (Json.member "predictions" fixture)
    |> List.map (fun row ->
           Json.to_list row |> List.map Json.to_float |> Array.of_list)
    |> Array.of_list
  in
  match models_dir with
  | None -> Printf.printf "skipped: no _models cache found from %s\n" (Sys.getcwd ())
  | Some dir ->
    let path = Filename.concat dir (name ^ ".json") in
    if not (Sys.file_exists path) then
      Printf.printf "skipped: %s not cached\n" path
    else begin
      let forest = Tb_model.Serialize.of_file path in
      let rng = Prng.create seed in
      let rows =
        Array.init num_rows (fun _ ->
            Array.init forest.Forest.num_features (fun _ -> Prng.gaussian rng))
      in
      let got = jit (Tb_lir.Lower.lower forest Schedule.default) rows in
      check_int "rows" (Array.length want) (Array.length got);
      let show a =
        String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") a))
      in
      Array.iteri
        (fun i w ->
          if not (arrays_same_bits w got.(i)) then
            Alcotest.failf "%s row %d: golden %s, got %s" name i (show w)
              (show got.(i)))
        want;
      (* The reference scalar walk must agree too: a fixture can only go
         stale through a *semantic* change, never a schedule tweak. *)
      let reference = Forest.predict_batch_raw forest rows in
      Array.iteri
        (fun i w ->
          check_bool
            (Printf.sprintf "%s row %d matches reference walk" name i)
            true
            (arrays_close ~eps:1e-5 w reference.(i)))
        want
    end

(* The pack digest fixture: the MD5 of every zoo model's encoded pack
   under four schedules, written by gen_golden.exe with the same list.
   A compiler change that moves a single byte of any of the 32 packs
   fails here. *)
let digest_schedules =
  [
    ("default", Schedule.default);
    ("array-layout", { Schedule.default with layout = Schedule.Array_layout });
    ("unpadded", { Schedule.default with pad_and_unroll = false });
    ("tile-size-4", { Schedule.default with tile_size = 4 });
  ]

let test_pack_digests () =
  let fixture =
    Json.of_string (read_file (Filename.concat golden_dir "pack_digests.json"))
  in
  match models_dir with
  | None -> Printf.printf "skipped: no _models cache found from %s\n" (Sys.getcwd ())
  | Some dir ->
    List.iter
      (fun name ->
        let path = Filename.concat dir (name ^ ".json") in
        if not (Sys.file_exists path) then
          Printf.printf "skipped: %s not cached\n" path
        else begin
          let forest = Tb_model.Serialize.of_file path in
          let want = Json.member name fixture in
          List.iter
            (fun (sname, s) ->
              let bytes =
                Tb_lir.Pack.encode
                  (Tb_lir.Pack.of_lower ~model:name (Tb_lir.Lower.lower forest s))
              in
              Alcotest.(check string)
                (Printf.sprintf "%s %s pack digest" name sname)
                (Json.to_str (Json.member sname want))
                (Digest.to_hex (Digest.bytes bytes)))
            digest_schedules
        end)
      names

(* The virtual serve report fixture, written by gen_golden.exe with the
   same set-up: CI's serve-sim smoke settings over abalone and letter,
   each serving a pool of 128 rows from our own Prng. Virtual reports
   carry no wall-clock time, so the recomputed report must match the file
   byte for byte. *)
let test_serve_virtual () =
  match models_dir with
  | None -> Printf.printf "skipped: no _models cache found from %s\n" (Sys.getcwd ())
  | Some dir ->
    let module Simulate = Tb_serve.Simulate in
    let model name =
      let forest =
        Tb_model.Serialize.of_file (Filename.concat dir (name ^ ".json"))
      in
      let rng = Prng.create (Hashtbl.hash name) in
      let pool =
        Array.init 128 (fun _ ->
            Array.init forest.Forest.num_features (fun _ -> Prng.gaussian rng))
      in
      { Simulate.name; forest; profiles = None; pool; weight = 1; slo_us = None }
    in
    let names = [ "abalone"; "letter" ] in
    if
      List.exists
        (fun name -> not (Sys.file_exists (Filename.concat dir (name ^ ".json"))))
        names
    then Printf.printf "skipped: abalone or letter not cached\n"
    else begin
      let config =
        {
          Simulate.default_config with
          arrival = Burst 16;
          rate_rps = 80_000.0;
          num_requests = 1000;
          cache_policy = Tb_serve.Policy.Sieve;
          cache_capacity = 2;
          runtime = { Tb_serve.Runtime.default_config with deadline_us = 500.0 };
        }
      in
      let report = Simulate.run_fleet config (List.map model names) in
      Alcotest.(check string)
        "virtual serve report"
        (read_file (Filename.concat golden_dir "serve_virtual.json"))
        (Json.to_string ~indent:true
           (Simulate.fleet_report_to_json ~virtual_only:true report)
        ^ "\n")
    end

let suite =
  List.map (fun name -> quick ("golden " ^ name) (test_golden name)) names
  @ [
      quick "golden pack digests: 8 models x 4 schedules" test_pack_digests;
      quick "golden virtual serve report: abalone + letter" test_serve_virtual;
    ]
