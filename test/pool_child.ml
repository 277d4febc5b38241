(* Runs a threaded predictor on a batch large enough to hand rows to the
   domain pool, then returns from the program with the pool's workers
   idle. test_vm's "pool child process exits" checks that it exits. *)

let () =
  let rng = Tb_util.Prng.create 19 in
  let forest = Tb_model.Forest.random ~num_trees:8 ~num_features:4 rng in
  let schedule = Tb_hir.Schedule.with_threads Tb_hir.Schedule.default 4 in
  let predict =
    Tb_vm.Jit.instantiate
      (Tb_lir.Pack.of_lower (Tb_lir.Lower.lower forest schedule))
  in
  let rows = Array.init 64 (fun _ -> Array.init 4 (fun _ -> Tb_util.Prng.float rng 1.0)) in
  ignore (predict rows)
