(* Shared test utilities. *)

module Prng = Tb_util.Prng

let quick name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) ~name gen law =
  (* Fixed seed: the suite must be reproducible run to run. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed |])
    (QCheck2.Test.make ~count ~name gen law)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let random_row rng num_features =
  Array.init num_features (fun _ -> Prng.float rng 2.0 -. 1.0)

let random_rows rng num_features n =
  Array.init n (fun _ -> random_row rng num_features)

let floats_close ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps +. (eps *. Float.abs b)

let arrays_close ?eps a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> floats_close ?eps x y) a b

(* QCheck2 generator for a (seed) from which tests derive deterministic
   structures via our own PRNG; shrinking over seeds is meaningless but
   cheap. *)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* Pack a lowering and instantiate its predictor. *)
let jit lp = Tb_vm.Jit.instantiate (Tb_lir.Pack.of_lower lp)
let jit_single_thread lp =
  Tb_vm.Jit.instantiate_single_thread (Tb_lir.Pack.of_lower lp)

(* Serve a trace on a one-shard fleet and return that shard's result. *)
let serve_one ?config ?mode ~schedule registry requests =
  let module Runtime = Tb_serve.Runtime in
  let router = Tb_serve.Router.create Tb_serve.Router.Affinity ~shards:1 in
  let fleet =
    Runtime.run_fleet ?config ?mode ~schedule ~router [ (0, registry) ]
      requests
  in
  List.assoc 0 fleet.Runtime.shard_results
