(* Golden prediction fixtures: every zoo model's default-schedule output on
   a pinned set of rows, checked in under test/golden/. A lowering-pipeline
   refactor that silently changes numerics fails here before it reaches the
   accuracy experiments.

   A fixture stores a row seed (rows regenerate deterministically from our
   own Prng) and the expected margins, printed with %.17g so the round trip
   is exact; regenerate after an *intended* change with
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

(* Tests run from _build/default/test; a dev shell may run the binary from
   the repo root. Probe upward for the model cache. *)
let models_dir =
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    [ "_models"; "../_models"; "../../_models"; "../../../_models" ]

(* Fixtures sit next to the binary under dune runtest (cwd
   _build/default/test), or under test/ when run from the repo root. *)
let golden_dir =
  if Sys.file_exists "golden" then "golden" else "test/golden"

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
      Array.iteri
        (fun i w ->
          if not (arrays_close w got.(i)) then
            Alcotest.failf "%s row %d: golden %s, got %s" name i
              (String.concat "," (List.map string_of_float (Array.to_list w)))
              (String.concat ","
                 (List.map string_of_float (Array.to_list got.(i)))))
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

let suite = List.map (fun name -> quick ("golden " ^ name) (test_golden name)) names
