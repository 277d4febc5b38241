(* Packed predictor artifacts (Tb_lir.Pack + the registry's disk tier).

   The format is only as trustworthy as its tests, so this suite is a
   serialization battery in three movements:

   - round-trip properties: random models x Table II schedules pack,
     unpack to an equal pack whose instantiated predictor is bitwise-equal
     to the directly-JIT'd one, and whose rehydrated layout cross-checks
     clean against the source HIR/MIR (0 T-findings);
   - corruption fuzzing: bad magic, wrong version, flipped bits,
     truncations, header corruption — every mutant must come back as a
     structured A001..A004 error, never an exception or a wrong pack, and
     the registry must fall back to a fresh compile;
   - the two-tier registry: a warm restart against the same cache
     directory serves with zero recompiles and bitwise-identical
     predictions, and the split wall-clock accounting is sane. *)

open Helpers
module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule
module Lower = Tb_lir.Lower
module Pack = Tb_lir.Pack
module Layout = Tb_lir.Layout
module Jit = Tb_vm.Jit
module Registry = Tb_serve.Registry
module Artifact = Tb_serve.Artifact
module Validate = Tb_analysis.Validate
module Prng = Tb_util.Prng

let bitwise_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Array.length x = Array.length y && Array.for_all2 Float.equal x y)
       a b

(* ---------------- round trip ---------------- *)

let random_lowered rng =
  let forest =
    Forest.random
      ~num_trees:(1 + Prng.int rng 6)
      ~max_depth:(1 + Prng.int rng 5)
      ~num_features:(2 + Prng.int rng 6)
      rng
  in
  let grid = Array.of_list Schedule.table2_grid in
  let schedule = grid.(Prng.int rng (Array.length grid)) in
  match Lower.lower forest schedule with
  | lp -> (forest, schedule, lp)
  | exception Invalid_argument _ ->
    (* Array-slab cap on deep tilings: fall back to the default point. *)
    (forest, Schedule.default, Lower.lower forest Schedule.default)

let roundtrip_property seed =
  let rng = Prng.create seed in
  let forest, _schedule, lp = random_lowered rng in
  let pk =
    Pack.of_lower ~model:"m" ~target:"t" ~us_per_row:1.25 lp
  in
  let bytes = Pack.encode pk in
  (* Deterministic encoder: equal packs encode to equal bytes. *)
  if Bytes.compare bytes (Pack.encode pk) <> 0 then
    QCheck2.Test.fail_report "encode is not deterministic";
  let pk' =
    match Pack.decode bytes with
    | Ok pk' -> pk'
    | Error e ->
      QCheck2.Test.fail_reportf "valid artifact rejected: [%s] %s" e.Pack.code
        e.Pack.message
  in
  if not (Pack.equal pk pk') then
    QCheck2.Test.fail_report "decode (encode pk) <> pk";
  (* The rehydrated layout must still agree with the source HIR/MIR: the
     cross-stage validator finds nothing to complain about. *)
  (match Validate.check_lir lp.Lower.hir lp.Lower.mir pk'.Pack.layout with
  | [] -> ()
  | fs ->
    QCheck2.Test.fail_reportf "rehydrated layout has %d T-findings"
      (List.length fs));
  (* And the instantiated predictor is the JIT, bitwise. *)
  let rows = random_rows rng forest.Forest.num_features 16 in
  let direct = jit_single_thread lp rows in
  let hydrated = Jit.instantiate_single_thread pk' rows in
  if not (bitwise_equal direct hydrated) then
    QCheck2.Test.fail_report "hydrated predictions diverge from the JIT";
  true

(* ---------------- corruption fuzzing ---------------- *)

let fixture_pack () =
  let rng = Prng.create 7 in
  let forest = Forest.random ~num_trees:5 ~max_depth:4 ~num_features:6 rng in
  let lp = Lower.lower forest Schedule.default in
  (forest, Pack.of_lower ~model:"fuzz" ~target:"t" lp)

let expect_error what code bytes =
  match Pack.decode bytes with
  | Ok _ -> Alcotest.failf "%s: decode accepted a corrupt artifact" what
  | Error e ->
    Alcotest.(check string) (what ^ " error code") code e.Pack.code;
    check_bool (what ^ " has a message") true (String.length e.Pack.message > 0)

let test_fuzz_magic_and_version () =
  let _, pk = fixture_pack () in
  let good = Pack.encode pk in
  (* Not even a magic's worth of bytes. *)
  expect_error "empty" "A001" (Bytes.create 0);
  expect_error "three bytes" "A001" (Bytes.sub good 0 3);
  (* Magic right but header truncated. *)
  expect_error "header cut short" "A001" (Bytes.sub good 0 10);
  (* Wrong magic. *)
  let b = Bytes.copy good in
  Bytes.blit_string "JUNK" 0 b 0 4;
  expect_error "bad magic" "A001" b;
  (* A JSON file is not an artifact. *)
  expect_error "json file" "A001" (Bytes.of_string "{ \"model\": \"abalone\" }");
  (* Future format version. *)
  let b = Bytes.copy good in
  Bytes.set_uint16_le b 4 (Pack.format_version + 1);
  expect_error "future version" "A002" b;
  (* Nonzero reserved header bytes (not covered by the payload CRC). *)
  let b = Bytes.copy good in
  Bytes.set_uint16_le b 6 1;
  expect_error "reserved bytes" "A004" b

let test_fuzz_checksum_and_truncation () =
  let _, pk = fixture_pack () in
  let good = Pack.encode pk in
  let n = Bytes.length good in
  (* Any payload bit flip trips the checksum. *)
  let rng = Prng.create 11 in
  for _ = 1 to 32 do
    let b = Bytes.copy good in
    let i = 16 + Prng.int rng (n - 16) in
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl Prng.int rng 8));
    expect_error "payload bit flip" "A003" b
  done;
  (* Flipping the stored CRC itself also mismatches. *)
  let b = Bytes.copy good in
  Bytes.set_uint8 b 12 (Bytes.get_uint8 b 12 lxor 1);
  expect_error "crc field flip" "A003" b;
  (* Truncations: the header's declared length no longer fits. *)
  expect_error "payload truncated" "A004" (Bytes.sub good 0 (n - 1));
  expect_error "payload halved" "A004" (Bytes.sub good 0 (16 + ((n - 16) / 2)));
  (* Trailing garbage past the declared payload. *)
  let b = Bytes.cat good (Bytes.make 3 'x') in
  expect_error "trailing garbage" "A004" b;
  (* Corrupt declared length, CRC recomputed to match: structural checks
     must still catch the inconsistency. *)
  let b = Bytes.copy good in
  Bytes.set_int32_le b 8 (Int32.of_int (n - 17));
  Bytes.set_int32_le b 12 (Pack.crc32 b ~pos:16 ~len:(n - 17));
  expect_error "shrunk declared length" "A004" b

(* Seeded mutation storm: decode must be total — every mutant yields a
   structured A00x error or (only when the mutation misses every checked
   byte, which cannot happen for single-bit flips) a valid pack; it never
   raises. *)
let fuzz_storm_property seed =
  let _, pk = fixture_pack () in
  let good = Pack.encode pk in
  let n = Bytes.length good in
  let rng = Prng.create seed in
  let mutant =
    match Prng.int rng 3 with
    | 0 ->
      (* single-bit flip anywhere *)
      let b = Bytes.copy good in
      let i = Prng.int rng n in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl Prng.int rng 8));
      b
    | 1 -> Bytes.sub good 0 (Prng.int rng n)
    | _ ->
      (* random byte stomp over a small window *)
      let b = Bytes.copy good in
      let i = Prng.int rng n in
      let len = min (1 + Prng.int rng 8) (n - i) in
      for j = i to i + len - 1 do
        Bytes.set_uint8 b j (Prng.int rng 256)
      done;
      b
  in
  match Pack.decode mutant with
  | Error e ->
    if not (List.mem e.Pack.code [ "A001"; "A002"; "A003"; "A004" ]) then
      QCheck2.Test.fail_reportf "unregistered error code %s" e.Pack.code;
    let d = Pack.error_to_diagnostic e in
    if d.Tb_diag.Diagnostic.level <> Tb_diag.Diagnostic.Artifact then
      QCheck2.Test.fail_report "diagnostic not at the Artifact level";
    true
  | Ok pk' ->
    (* A mutant that still decodes must be byte-identical to the source
       artifact (e.g. a zero-length truncation "window" stomp that wrote
       back the original bytes). *)
    if not (Pack.equal pk pk') then
      QCheck2.Test.fail_report "corrupt artifact decoded to a different pack";
    true

(* ---------------- the registry's disk tier ---------------- *)

(* A unique empty directory name per call: temp_file reserves the name,
   removing the placeholder leaves it free for Artifact.create to mkdir. *)
let fresh_dir () =
  let f = Filename.temp_file "tb_artifact_test" ".cache" in
  Sys.remove f;
  f

let zoo_registry ~cache_dir seeds =
  let reg = Registry.create ~capacity:16 ~cache_dir () in
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let forest =
        Forest.random ~num_trees:4 ~max_depth:4 ~num_features:5 rng
      in
      Registry.register reg ~name:(Printf.sprintf "m%d" seed) forest)
    seeds;
  reg

let test_warm_restart_zero_recompiles () =
  let dir = fresh_dir () in
  let seeds = [ 1; 2; 3 ] in
  let rng = Prng.create 99 in
  let rows = random_rows rng 5 8 in
  (* Cold process: every model pays a compile and writes its artifact. *)
  let cold = zoo_registry ~cache_dir:dir seeds in
  let cold_preds =
    List.map
      (fun seed ->
        let c, prov =
          Registry.compiled cold ~model:(Printf.sprintf "m%d" seed)
            ~schedule:Schedule.default
        in
        check_string
          (Printf.sprintf "m%d cold provenance" seed)
          "compile"
          (Registry.provenance_string prov);
        c.Registry.predict rows)
      seeds
  in
  check_int "cold compiles" 3 (Registry.compile_count cold);
  check_int "cold hydrations" 0 (Registry.hydration_count cold);
  check_bool "no artifact errors" true (Registry.artifact_errors cold = []);
  (* Warm restart: a fresh process over the same directory hydrates
     everything — zero recompiles, bitwise-identical predictions. *)
  let warm = zoo_registry ~cache_dir:dir seeds in
  List.iteri
    (fun i seed ->
      let c, prov =
        Registry.compiled warm ~model:(Printf.sprintf "m%d" seed)
          ~schedule:Schedule.default
      in
      check_string
        (Printf.sprintf "m%d warm provenance" seed)
        "disk"
        (Registry.provenance_string prov);
      check_bool
        (Printf.sprintf "m%d warm predictions bitwise equal" seed)
        true
        (bitwise_equal (List.nth cold_preds i) (c.Registry.predict rows));
      (* Second lookup of the same model is an in-memory hit. *)
      let _, prov2 =
        Registry.compiled warm ~model:(Printf.sprintf "m%d" seed)
          ~schedule:Schedule.default
      in
      check_string
        (Printf.sprintf "m%d repeat provenance" seed)
        "hit"
        (Registry.provenance_string prov2))
    seeds;
  check_int "warm restart recompiles nothing" 0 (Registry.compile_count warm);
  check_int "warm hydrations" 3 (Registry.hydration_count warm)

let test_corrupt_artifact_falls_back () =
  let dir = fresh_dir () in
  let reg = zoo_registry ~cache_dir:dir [ 5 ] in
  let c, _ = Registry.compiled reg ~model:"m5" ~schedule:Schedule.default in
  let rng = Prng.create 13 in
  let rows = random_rows rng 5 8 in
  let want = c.Registry.predict rows in
  (* Flip one payload byte of the stored artifact. *)
  let file =
    match Sys.readdir dir with
    | [| f |] -> Filename.concat dir f
    | files -> Alcotest.failf "expected one artifact, found %d" (Array.length files)
  in
  let bytes =
    match Artifact.read_file file with
    | Ok b -> b
    | Error m -> Alcotest.failf "read_file: %s" m
  in
  Bytes.set_uint8 bytes 20 (Bytes.get_uint8 bytes 20 lxor 4);
  (match Artifact.write_file file bytes with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write_file: %s" m);
  (* A fresh process must reject the corrupt artifact with a structured
     error, fall back to a fresh compile, and serve correct predictions. *)
  let warm = zoo_registry ~cache_dir:dir [ 5 ] in
  let c2, prov = Registry.compiled warm ~model:"m5" ~schedule:Schedule.default in
  check_string "corrupt artifact forces a compile" "compile"
    (Registry.provenance_string prov);
  check_int "fallback compile counted" 1 (Registry.compile_count warm);
  (match Registry.artifact_errors warm with
  | [ (model, what) ] ->
    check_string "error names the model" "m5" model;
    check_bool "error is a structured A003 decode rejection" true
      (String.length what >= 11
      && String.sub what 0 7 = "decode["
      && String.sub what 7 4 = "A003")
  | errs -> Alcotest.failf "expected one artifact error, got %d" (List.length errs));
  check_bool "fallback predictions bitwise equal" true
    (bitwise_equal want (c2.Registry.predict rows));
  (* The fallback compile overwrote the corrupt file: the next restart
     hydrates cleanly again. *)
  let healed = zoo_registry ~cache_dir:dir [ 5 ] in
  let _, prov3 = Registry.compiled healed ~model:"m5" ~schedule:Schedule.default in
  check_string "overwritten artifact hydrates" "disk"
    (Registry.provenance_string prov3);
  check_bool "healed run reports no artifact errors" true
    (Registry.artifact_errors healed = [])

let test_wall_cost_split () =
  let dir = fresh_dir () in
  let cold = zoo_registry ~cache_dir:dir [ 21 ] in
  let c, _ = Registry.compiled cold ~model:"m21" ~schedule:Schedule.default in
  check_bool "instantiate cost is part of the compile cost" true
    (c.Registry.wall_instantiate_us >= 0.0
    && c.Registry.wall_instantiate_us <= c.Registry.wall_compile_us);
  check_bool "modeled hydration is cheaper than a modeled compile" true
    (c.Registry.hydrate_us < c.Registry.compile_us);
  check_bool "modeled hydration is >= 5x cheaper" true
    (c.Registry.compile_us /. c.Registry.hydrate_us >= 5.0);
  let warm = zoo_registry ~cache_dir:dir [ 21 ] in
  let h, prov = Registry.compiled warm ~model:"m21" ~schedule:Schedule.default in
  check_string "disk provenance" "disk" (Registry.provenance_string prov);
  check_bool "hydration wall cost also splits" true
    (h.Registry.wall_instantiate_us >= 0.0
    && h.Registry.wall_instantiate_us <= h.Registry.wall_compile_us);
  (* The artifact metadata round-trips the uncalibrated service model. *)
  check_bool "hydrated service model positive" true (h.Registry.us_per_row > 0.0);
  check_float "hydrated service model matches the compile's" c.Registry.us_per_row
    h.Registry.us_per_row

(* ---------------- golden artifact fixture ---------------- *)

let golden_dir =
  if Sys.file_exists "golden" then "golden" else "test/golden"

let models_dir =
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    [ "_models"; "../_models"; "../../_models"; "../../../_models" ]

let test_golden_artifact_byte_stability () =
  let path = Filename.concat golden_dir "abalone.tbpack" in
  let fixture =
    match Artifact.read_file path with
    | Ok b -> b
    | Error m -> Alcotest.failf "missing golden artifact (%s)" m
  in
  (* The checked-in artifact decodes under the current decoder... *)
  let pk =
    match Pack.decode fixture with
    | Ok pk -> pk
    | Error e ->
      Alcotest.failf
        "golden artifact no longer decodes ([%s] %s) — the wire format \
         changed; bump Pack.format_version and regenerate with gen_golden"
        e.Pack.code e.Pack.message
  in
  check_string "golden model name" "abalone" pk.Pack.meta.Pack.model;
  (* ... and re-encodes to the exact bytes on disk (byte stability). *)
  check_bool "golden artifact re-encodes byte-identically" true
    (Bytes.compare fixture (Pack.encode pk) = 0);
  (* With the model cache present, packing the model afresh must
     reproduce the fixture bit for bit — otherwise the format (or the
     lowering) changed and on-disk caches would silently orphan. *)
  match models_dir with
  | None ->
    Printf.printf "skipped repack: no _models cache found from %s\n"
      (Sys.getcwd ())
  | Some dir ->
    let model_path = Filename.concat dir "abalone.json" in
    if not (Sys.file_exists model_path) then
      Printf.printf "skipped repack: %s absent\n" model_path
    else begin
      let forest = Tb_model.Serialize.of_file model_path in
      let lp = Lower.lower forest Schedule.default in
      let repacked = Pack.of_lower ~model:"abalone" lp in
      check_bool "freshly packed abalone matches the fixture" true
        (Bytes.compare fixture (Pack.encode repacked) = 0)
    end

(* The quantized fixture pins the v2 quant metadata block and the
   narrow-layout serialization the same way the float fixture pins the
   base format: decode, re-encode byte-identically, and (with the model
   cache present) reproduce it from scratch through certify -> lower
   ~quant -> pack. *)
let test_golden_quant_artifact_byte_stability () =
  let path = Filename.concat golden_dir "abalone-int16.tbpack" in
  let fixture =
    match Artifact.read_file path with
    | Ok b -> b
    | Error m -> Alcotest.failf "missing golden quant artifact (%s)" m
  in
  let pk =
    match Pack.decode fixture with
    | Ok pk -> pk
    | Error e ->
      Alcotest.failf
        "golden quant artifact no longer decodes ([%s] %s) — the wire \
         format changed; bump Pack.format_version and regenerate with \
         gen_golden"
        e.Pack.code e.Pack.message
  in
  check_string "golden quant model name" "abalone" pk.Pack.meta.Pack.model;
  (match pk.Pack.quant with
  | None -> Alcotest.fail "golden quant artifact lost its quant block"
  | Some q ->
    check_int "golden quant resident_k" 2 q.Pack.resident_k;
    check_float "golden quant tolerance" 0.5 q.Pack.tolerance);
  (match pk.Pack.layout.Layout.quant with
  | None -> Alcotest.fail "golden quant artifact rehydrated a float layout"
  | Some s -> check_int "golden quant qbits" 16 s.Layout.qbits);
  check_bool "golden quant artifact re-encodes byte-identically" true
    (Bytes.compare fixture (Pack.encode pk) = 0);
  match models_dir with
  | None -> ()
  | Some dir ->
    let model_path = Filename.concat dir "abalone.json" in
    if Sys.file_exists model_path then begin
      let forest = Tb_model.Serialize.of_file model_path in
      let module Numeric = Tb_analysis.Numeric in
      let cert = Numeric.certify ~width:Numeric.I16 forest in
      let qspec = Tb_core.Treebeard.qspec_of_plan cert.Numeric.plan in
      let repacked =
        Pack.of_lower ~model:"abalone"
          ~quant:
            {
              Pack.resident_k = 2;
              dev_bound = Array.copy cert.Numeric.dev_bound;
              tolerance = 0.5;
            }
          (Lower.lower ~quant:qspec forest Schedule.default)
      in
      check_bool "freshly packed quantized abalone matches the fixture" true
        (Bytes.compare fixture (Pack.encode repacked) = 0)
    end

(* Tile lanes that read outside the row. The integer kernels load the
   quantized row unchecked, so the decoder must reject such a pack rather
   than instantiate it. Each mutant re-encodes with a fresh CRC, so only
   the structural check can catch it. *)
let root_feature_mutant file f =
  let pk =
    match Artifact.read_file (Filename.concat golden_dir file) with
    | Error m -> Alcotest.failf "missing golden artifact (%s)" m
    | Ok b -> (
      match Pack.decode b with
      | Ok pk -> pk
      | Error e -> Alcotest.failf "%s: [%s] %s" file e.Pack.code e.Pack.message)
  in
  let lay = pk.Pack.layout in
  let nt = lay.Layout.tile_size in
  let root = lay.Layout.tree_root.(0) in
  check_bool (file ^ ": tree 0's root is a tile") true
    (root >= 0 && lay.Layout.shape_ids.(root) >= 0);
  let features = Array.copy lay.Layout.features in
  Array.fill features (root * nt) nt f;
  { pk with Pack.layout = { lay with Layout.features } }

let test_feature_range_mutants () =
  expect_error "int16 root tile reads feature 1000000" "A004"
    (Pack.encode (root_feature_mutant "abalone-int16.tbpack" 1_000_000));
  expect_error "float root tile reads feature -1" "A004"
    (Pack.encode (root_feature_mutant "abalone.tbpack" (-1)))

let suite =
  [
    qcheck ~count:60
      ~name:"pack round trip: equal pack, clean validation, bitwise predictions"
      seed_gen roundtrip_property;
    quick "fuzz: magic, version, reserved header" test_fuzz_magic_and_version;
    quick "fuzz: checksum + truncation" test_fuzz_checksum_and_truncation;
    qcheck ~count:200 ~name:"fuzz storm: decode is total, errors structured"
      seed_gen fuzz_storm_property;
    quick "warm restart: zero recompiles, bitwise predictions"
      test_warm_restart_zero_recompiles;
    quick "corrupt artifact: structured fallback + self-heal"
      test_corrupt_artifact_falls_back;
    quick "wall cost split + modeled hydration discount" test_wall_cost_split;
    quick "golden artifact byte stability" test_golden_artifact_byte_stability;
    quick "golden quantized artifact byte stability"
      test_golden_quant_artifact_byte_stability;
    quick "tile lane outside the row -> A004" test_feature_range_mutants;
  ]
