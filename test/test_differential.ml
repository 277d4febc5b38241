(* Differential harness across the three executors.

   For a random forest paired with a random schedule drawn from the full
   Table II grid, the two optimizing backends — the closure JIT and the
   Reg_ir interpreter — must agree *bitwise*: they implement the same
   accumulation order, so any divergence is a real compilation bug, not
   floating-point slack. Both must also agree with the naive scalar walk
   over the source forest ({!Forest.predict_batch_raw}) within 1e-5, which
   pins the semantics rather than the instruction schedule (tree reordering
   changes the summation order, so bitwise equality is not expected
   there). *)

open Helpers
module Prng = Tb_util.Prng
module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule
module Lower = Tb_lir.Lower
module Jit = Tb_vm.Jit
module Interp = Tb_vm.Interp

let grid = Array.of_list Schedule.table2_grid

let random_forest rng =
  if Prng.int rng 4 = 0 then
    (* Multiclass exercises the margin-matrix path. *)
    let num_classes = 2 + Prng.int rng 3 in
    let trees =
      Array.init
        (num_classes * (1 + Prng.int rng 4))
        (fun _ -> Tb_model.Tree.random ~max_depth:(3 + Prng.int rng 4) ~num_features:6 rng)
    in
    Forest.make ~task:(Forest.Multiclass num_classes) ~num_features:6 trees
  else
    Forest.random ~num_trees:(1 + Prng.int rng 12)
      ~max_depth:(2 + Prng.int rng 6) ~num_features:6 rng

let differential_property seed =
  let rng = Prng.create seed in
  let forest = random_forest rng in
  let schedule = grid.(Prng.int rng (Array.length grid)) in
  let rows = random_rows rng 6 (1 + Prng.int rng 30) in
  let lp = Lower.lower forest schedule in
  let jit = jit lp rows in
  let interp = Interp.compile lp rows in
  let reference = Forest.predict_batch_raw forest rows in
  let bitwise =
    Array.for_all2 (fun a b -> Array.for_all2 Float.equal a b) jit interp
  in
  let close out =
    Array.for_all2 (fun a b -> arrays_close ~eps:1e-5 a b) out reference
  in
  if not bitwise then
    QCheck2.Test.fail_reportf "JIT <> Interp (bitwise) under %s"
      (Schedule.to_string schedule)
  else if not (close jit) then
    QCheck2.Test.fail_reportf "JIT <> naive walk under %s"
      (Schedule.to_string schedule)
  else if not (close interp) then
    QCheck2.Test.fail_reportf "Interp <> naive walk under %s"
      (Schedule.to_string schedule)
  else true

(* Every tile size 1-8 under both layouts, padded or not, interleaved or
   not, in both loop orders. The Table II grid has no tile size 3, 5, 6 or
   7, and pairs the array layout only with tile sizes below 4 and the
   sparse layout only with 4 and up, so the JIT's lane loop (sizes other
   than 8) and these layout/size pairs are checked bitwise only here. *)
let tile_size_sweep =
  List.concat_map
    (fun tile_size ->
      List.concat_map
        (fun layout ->
          List.concat_map
            (fun pad_and_unroll ->
              List.concat_map
                (fun interleave ->
                  List.map
                    (fun loop_order ->
                      {
                        Schedule.scalar_baseline with
                        tile_size;
                        layout;
                        pad_and_unroll;
                        peel = pad_and_unroll;
                        interleave;
                        loop_order;
                      })
                    [ Schedule.One_tree_at_a_time; Schedule.One_row_at_a_time ])
                [ 1; 4 ])
            [ true; false ])
        [ Schedule.Array_layout; Schedule.Sparse_layout ])
    (List.init 8 (fun i -> i + 1))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Deterministic sweep of the whole grid, plus the tile-size sweep, on
   one fixed forest: slower than the random pairing above but guarantees
   every Table II point is hit at least once per run. The 12 rows are
   also predicted in 1-, 2- and 3-row calls, which are shorter than most
   interleaves and so run tree jams: each call must equal Interp
   bitwise, and give every row the margins it got in the 12-row call
   (serving's equivalence gate relies on a row's margins not depending on
   the batch it arrives in). *)
let test_full_grid_one_forest () =
  let rng = Prng.create 99 in
  let forest = Forest.random ~num_trees:7 ~max_depth:6 ~num_features:6 rng in
  let rows = random_rows rng 6 12 in
  let reference = Forest.predict_batch_raw forest rows in
  List.iter
    (fun schedule ->
      let lp = Lower.lower forest schedule in
      let predict = jit lp and interp = Interp.compile lp in
      let full = predict rows in
      if
        not
          (Array.for_all2
             (fun a b -> Array.for_all2 Float.equal a b)
             full (interp rows))
      then Alcotest.failf "JIT <> Interp: %s" (Schedule.to_string schedule);
      if not (Array.for_all2 (fun a b -> arrays_close ~eps:1e-5 a b) full reference)
      then Alcotest.failf "JIT <> reference: %s" (Schedule.to_string schedule);
      List.iter
        (fun b ->
          for c = 0 to (Array.length rows / b) - 1 do
            let batch = Array.sub rows (c * b) b in
            let got = predict batch in
            if not (Array.for_all2 same_bits got (interp batch)) then
              Alcotest.failf "JIT <> Interp on a %d-row call: %s" b
                (Schedule.to_string schedule);
            Array.iteri
              (fun j margins ->
                if not (same_bits margins full.((c * b) + j)) then
                  Alcotest.failf "row %d: %d-row call <> 12-row call: %s"
                    ((c * b) + j) b (Schedule.to_string schedule))
              got
          done)
        [ 1; 2; 3 ])
    (Schedule.table2_grid @ tile_size_sweep)

let suite =
  [
    qcheck ~count:200 ~name:"JIT == Interp == naive walk (random grid point)"
      seed_gen differential_property;
    quick "full Table II grid on one forest" test_full_grid_one_forest;
  ]
