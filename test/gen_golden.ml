(* Regenerates the golden prediction fixtures in test/golden/.

   Run from the repository root after an INTENDED numeric change:

     dune exec test/gen_golden.exe

   Each fixture pins the default-schedule predictions of one cached zoo
   model (_models/<name>.json) on a deterministic set of rows. The rows
   are derived from the stored seed with our own Prng (stable across
   platforms and OCaml versions), so the fixture only carries the
   predictions — a few KB even for the 2000-feature models. Floats are
   printed with %.17g, so the round trip is exact. *)

module Json = Tb_util.Json
module Forest = Tb_model.Forest
module Prng = Tb_util.Prng
module Schedule = Tb_hir.Schedule

let names =
  [ "abalone"; "airline"; "airline-ohe"; "covtype"; "epsilon"; "letter";
    "higgs"; "year" ]

let num_rows = 8

let golden_rows forest seed =
  let rng = Prng.create seed in
  Array.init num_rows (fun _ ->
      Array.init forest.Forest.num_features (fun _ -> Prng.gaussian rng))

let () =
  if not (Sys.file_exists "test/golden") then Sys.mkdir "test/golden" 0o755;
  List.iter
    (fun name ->
      let forest = Tb_model.Serialize.of_file ("_models/" ^ name ^ ".json") in
      let seed = Hashtbl.hash name in
      let rows = golden_rows forest seed in
      let predict =
        Tb_vm.Jit.instantiate
          (Tb_lir.Pack.of_lower (Tb_lir.Lower.lower forest Schedule.default))
      in
      let predictions = predict rows in
      let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Num x) a)) in
      let json =
        Json.Obj
          [
            ("model", Json.Str name);
            ("schedule", Json.Str "default");
            ("seed", Json.Num (float_of_int seed));
            ("num_rows", Json.Num (float_of_int num_rows));
            ( "predictions",
              Json.List (Array.to_list (Array.map floats predictions)) );
          ]
      in
      let path = "test/golden/" ^ name ^ ".json" in
      let oc = open_out path in
      output_string oc (Json.to_string ~indent:true json);
      output_string oc "\n";
      close_out oc;
      Printf.printf "wrote %s (%d rows x %d outputs)\n" path num_rows
        (Array.length predictions.(0)))
    names;
  (* One golden *artifact* fixture pins the Pack wire format itself: the
     byte-stability test re-encodes it and compares bit for bit, so any
     unintended format change (or a forgotten format_version bump) fails
     loudly. us_per_row stays at its 0 default — fixture bytes must not
     depend on the perf simulator. *)
  let forest = Tb_model.Serialize.of_file "_models/abalone.json" in
  let pack =
    Tb_lir.Pack.of_lower ~model:"abalone"
      (Tb_lir.Lower.lower forest Schedule.default)
  in
  let bytes = Tb_lir.Pack.encode pack in
  let path = "test/golden/abalone.tbpack" in
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  Printf.printf "wrote %s (%d bytes, format v%d)\n" path (Bytes.length bytes)
    Tb_lir.Pack.format_version;
  (* And one golden *quantized* artifact: same model, int16 tier, fixed
     tolerance and resident_k (an inert wire field; the fixture records
     2) so the quant metadata block and the narrow-layout serialization
     are pinned too. The plan comes from the
     deterministic certifier, so the fixture is reproducible from the
     model cache alone. *)
  let cert = Tb_analysis.Numeric.certify ~width:Tb_analysis.Numeric.I16 forest in
  let qspec = Tb_core.Treebeard.qspec_of_plan cert.Tb_analysis.Numeric.plan in
  let qpack =
    Tb_lir.Pack.of_lower ~model:"abalone"
      ~quant:
        {
          Tb_lir.Pack.resident_k = 2;
          dev_bound = Array.copy cert.Tb_analysis.Numeric.dev_bound;
          tolerance = 0.5;
        }
      (Tb_lir.Lower.lower ~quant:qspec forest Schedule.default)
  in
  let qbytes = Tb_lir.Pack.encode qpack in
  let qpath = "test/golden/abalone-int16.tbpack" in
  let oc = open_out_bin qpath in
  output_bytes oc qbytes;
  close_out oc;
  Printf.printf "wrote %s (%d bytes, format v%d)\n" qpath (Bytes.length qbytes)
    Tb_lir.Pack.format_version
