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
module Mir = Tb_mir.Mir
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
  (* [encode] writes every field, so equal bytes mean an equal pack. *)
  if not (Bytes.equal bytes (Pack.encode pk')) then
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

(* CRC-32/IEEE one bit at a time, with no table: the reference the
   table-driven [Pack.crc32] must agree with. *)
let reference_crc32 buf ~pos ~len =
  let c = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get buf i);
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFF_FFFF)

let test_crc32_known_answer_and_range () =
  let check_crc = Alcotest.(check int32) in
  check_crc "CRC-32 check value" 0xCBF43926l
    (Pack.crc32 (Bytes.of_string "123456789") ~pos:0 ~len:9);
  check_crc "same bytes at an offset" 0xCBF43926l
    (Pack.crc32 (Bytes.of_string "xx123456789y") ~pos:2 ~len:9);
  check_crc "empty range" 0l (Pack.crc32 (Bytes.create 4) ~pos:4 ~len:0);
  let buf = Bytes.make 16 'a' in
  List.iter
    (fun (pos, len) ->
      match Pack.crc32 buf ~pos ~len with
      | _ -> Alcotest.failf "crc32 accepted pos %d len %d on 16 bytes" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (0, 17); (9, 8); (17, 0); (max_int, 2) ]

(* Random buffers, unaligned starts and lengths 0..100, so both the
   eight-byte loop and the bytewise tail run. *)
let crc32_reference_property seed =
  let rng = Prng.create seed in
  let pos = Prng.int rng 16 and len = Prng.int rng 101 in
  let buf =
    Bytes.init (pos + len + Prng.int rng 8) (fun _ ->
        Char.chr (Prng.int rng 256))
  in
  let want = reference_crc32 buf ~pos ~len in
  let got = Pack.crc32 buf ~pos ~len in
  Int32.equal want got
  || QCheck2.Test.fail_reportf "pos %d len %d: crc32 %08lx, reference %08lx"
       pos len got want

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
    if not (Bytes.equal good (Pack.encode pk')) then
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
   quantized layout's integer-valued buffers the same way the float
   fixture pins the base format: decode, re-encode byte-identically, and
   (with the model cache present) reproduce it from scratch through
   certify -> lower ~quant -> pack. *)
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

let golden_bytes file =
  match Artifact.read_file (Filename.concat golden_dir file) with
  | Ok b -> b
  | Error m -> Alcotest.failf "missing golden artifact (%s)" m

let golden_pack file =
  match Pack.decode (golden_bytes file) with
  | Ok pk -> pk
  | Error e -> Alcotest.failf "%s: [%s] %s" file e.Pack.code e.Pack.message

(* Tile lanes that read outside the row. A quantized row is exactly as
   long as the plan's feature_exp, so such a pack would decode and then
   fail at its first predict; the decoder must reject it instead. Each
   mutant re-encodes with a fresh CRC, so only the structural check can
   catch it. *)
let root_feature_mutant file f =
  let pk = golden_pack file in
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

(* An array-layout slab base must name a slot: a root equal to the slot
   count used to decode and then index out of bounds at the first
   predict. The mutant re-encodes with a fresh CRC. *)
let test_array_root_range_mutant () =
  let rng = Prng.create 9 in
  let forest = Forest.random ~num_trees:4 ~max_depth:4 ~num_features:5 rng in
  let pk =
    Pack.of_lower ~model:"roots" (Lower.lower forest Schedule.scalar_baseline)
  in
  let lay = pk.Pack.layout in
  check_bool "scalar baseline packs an array layout" true
    (lay.Layout.kind = Layout.Array_kind);
  let tree_root = Array.copy lay.Layout.tree_root in
  tree_root.(Array.length tree_root - 1) <- Array.length lay.Layout.shape_ids;
  expect_error "array root equal to the slot count" "A004"
    (Pack.encode { pk with Pack.layout = { lay with Layout.tree_root } })

(* The register-program block is derived from the layout and the plan. A
   stored block that disagrees is rejected even when its programs keep
   register discipline, as one declaring a spare register does. Blocks
   follow the 16-byte header as tag (u8), length (i32), body; REG is tag
   5, and its first program's num_iregs follows the program count (i32),
   tile size (u8), layout kind (u8) and lane count (i32). The CRC is
   recomputed, so only the decoder's REG check can catch it. *)
let test_reg_block_mutant () =
  let b = golden_bytes "abalone.tbpack" in
  let rec reg_body pos =
    if Bytes.get_uint8 b pos = 5 then pos + 5
    else reg_body (pos + 5 + Int32.to_int (Bytes.get_int32_le b (pos + 1)))
  in
  let at = reg_body 16 + 10 in
  let iregs = Int32.to_int (Bytes.get_int32_le b at) in
  check_int "first program's num_iregs" Tb_lir.Reg_codegen.num_iregs iregs;
  Bytes.set_int32_le b at (Int32.of_int (iregs + 1));
  Bytes.set_int32_le b 12 (Pack.crc32 b ~pos:16 ~len:(Bytes.length b - 16));
  expect_error "REG block with a spare register" "A004" b

(* Layout values the walk indexes by, re-encoded with a fresh CRC. A LUT
   entry past the tile's children makes abalone's predictor return wrong
   margins, and a negative sparse shape id makes its first predict index
   the LUT out of bounds, so the decoder must reject both. *)
let test_lut_entry_mutant () =
  let pk = golden_pack "abalone.tbpack" in
  let lay = pk.Pack.layout in
  let nt = lay.Layout.tile_size in
  let lut = Array.copy lay.Layout.lut in
  lut.(1) <- Array.map (fun c -> if c = 0 then nt + 1 else c) lut.(1);
  expect_error "LUT row 1's child 0 entries set to tile_size + 1" "A004"
    (Pack.encode { pk with Pack.layout = { lay with Layout.lut } })

let test_sparse_shape_id_mutant () =
  let pk = golden_pack "abalone.tbpack" in
  let lay = pk.Pack.layout in
  check_bool "abalone's default pack is sparse" true
    (lay.Layout.kind = Layout.Sparse_kind);
  let shape_ids = Array.copy lay.Layout.shape_ids in
  shape_ids.(0) <- -1;
  expect_error "sparse slot 0 with shape id -1" "A004"
    (Pack.encode { pk with Pack.layout = { lay with Layout.shape_ids } })

(* Walk-path mutants, each re-encoded with a fresh CRC. No value a walk
   indexes by directly is out of range, so only the layout check's
   closure rules catch them: tree 0's root child pointer moved past the
   slots or onto tree 1's root makes the first predict index out of
   bounds, onto its own slot makes a loop walk cycle forever, and an
   array pack whose leaf markers became shape 0 walks out of its slabs.
   No test predicts on them. *)
let root_child_ptr_mutant target =
  let pk = golden_pack "abalone.tbpack" in
  let lay = pk.Pack.layout in
  let root = lay.Layout.tree_root.(0) in
  check_bool "trees 0 and 1 are rooted at tiles" true
    (root >= 0 && lay.Layout.tree_root.(1) > root);
  let child_ptr = Array.copy lay.Layout.child_ptr in
  child_ptr.(root) <- target lay;
  Pack.encode { pk with Pack.layout = { lay with Layout.child_ptr } }

let test_root_child_ptr_mutants () =
  expect_error "tree 0's root child pointer at the slot count" "A004"
    (root_child_ptr_mutant Layout.num_slots);
  expect_error "tree 0's root child pointer on tree 1's root" "A004"
    (root_child_ptr_mutant (fun lay -> lay.Layout.tree_root.(1)));
  expect_error "tree 0's root child pointer on its own slot" "A004"
    (root_child_ptr_mutant (fun lay -> lay.Layout.tree_root.(0)))

let test_array_leaf_marker_mutant () =
  let rng = Prng.create 9 in
  let forest = Forest.random ~num_trees:4 ~max_depth:4 ~num_features:5 rng in
  let pk =
    Pack.of_lower ~model:"leaves" (Lower.lower forest Schedule.scalar_baseline)
  in
  let lay = pk.Pack.layout in
  check_bool "scalar baseline packs an array layout" true
    (lay.Layout.kind = Layout.Array_kind);
  let shape_ids =
    Array.map
      (fun sid -> if sid = Layout.leaf_marker then 0 else sid)
      lay.Layout.shape_ids
  in
  expect_error "array leaf markers set to shape 0" "A004"
    (Pack.encode { pk with Pack.layout = { lay with Layout.shape_ids } })

(* Walk-plan mutants, each re-encoded with a fresh CRC. The kernels trust
   the plan: an unrolled walk takes exactly its depth in steps, and a
   peeled one takes its peel without a leaf check. Abalone's default pack
   unrolls its groups to depths 1, 2 and 3. With every depth one more,
   the first predict steps off a leaf and indexes out of bounds; one
   less, it indexes out of bounds too. A peel past a tree's shallowest
   leaf breaks the contract of the peeled kernels, which step that many
   times without a leaf check; on an array layout the leaf's depth is
   its tiled depth, so one more than the group's peel is past it. *)
let with_walks (pk : Pack.t) f =
  {
    pk with
    Pack.groups =
      Array.map (fun g -> { g with Pack.walk = f g.Pack.walk }) pk.Pack.groups;
  }

let test_walk_depth_mutants () =
  let pk = golden_pack "abalone.tbpack" in
  let depths =
    Array.to_list pk.Pack.groups
    |> List.filter_map (fun g ->
           match g.Pack.walk with
           | Mir.Unrolled_walk { depth } -> Some depth
           | Mir.Loop_walk | Mir.Peeled_walk _ -> None)
  in
  check_string "abalone's unrolled depths" "1,2,3"
    (String.concat "," (List.map string_of_int depths));
  let unroll d =
    with_walks pk (function
      | Mir.Unrolled_walk { depth } -> Mir.Unrolled_walk { depth = depth + d }
      | w -> w)
  in
  expect_error "every unrolled depth raised by one" "A004"
    (Pack.encode (unroll 1));
  expect_error "every unrolled depth lowered by one" "A004"
    (Pack.encode (unroll (-1)));
  let rng = Prng.create 13 in
  let forest = Forest.random ~num_trees:6 ~max_depth:6 ~num_features:5 rng in
  let schedule =
    {
      Schedule.default with
      Schedule.pad_and_unroll = false;
      peel = true;
      layout = Schedule.Array_layout;
    }
  in
  let pk = Pack.of_lower ~model:"peel" (Lower.lower forest schedule) in
  check_bool "the peel schedule packs peeled groups" true
    (Array.exists
       (fun g ->
         match g.Pack.walk with Mir.Peeled_walk _ -> true | _ -> false)
       pk.Pack.groups);
  expect_error "every peel one past its group's shallowest leaf" "A004"
    (Pack.encode
       (with_walks pk (function
         | Mir.Peeled_walk { peel } -> Mir.Peeled_walk { peel = peel + 1 }
         | w -> w)))

let suite =
  [
    qcheck ~count:60
      ~name:"pack round trip: equal pack, clean validation, bitwise predictions"
      seed_gen roundtrip_property;
    quick "fuzz: magic, version, reserved header" test_fuzz_magic_and_version;
    quick "fuzz: checksum + truncation" test_fuzz_checksum_and_truncation;
    quick "crc32: check value, range checks" test_crc32_known_answer_and_range;
    qcheck ~count:300 ~name:"crc32 == bitwise reference (unaligned, short)"
      seed_gen crc32_reference_property;
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
    quick "array root at the slot count -> A004" test_array_root_range_mutant;
    quick "REG block that disagrees with the plan -> A004" test_reg_block_mutant;
    quick "LUT entry outside 0..tile_size -> A004" test_lut_entry_mutant;
    quick "negative sparse shape id -> A004" test_sparse_shape_id_mutant;
    quick "root child pointer off its tree's slots -> A004"
      test_root_child_ptr_mutants;
    quick "array leaf markers turned tiles -> A004" test_array_leaf_marker_mutant;
    quick "walk depths that disagree with the leaves -> A004"
      test_walk_depth_mutants;
  ]
