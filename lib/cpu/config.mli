(** CPU target descriptions.

    The cost model is parametric over a small set of microarchitectural
    constants; the two shipped configurations mirror the paper's testbeds.
    The load-bearing difference is the {e gather} implementation: Rocket
    Lake executes AVX2 gathers far faster than Zen 2, which is why the
    paper finds larger tile sizes optimal on Intel (§VI-A). *)

type t = {
  name : string;
  issue_width : float;  (** µops issued per cycle *)
  branch_miss_penalty : float;  (** cycles *)
  predicate_mispredict_rate : float;
      (** misprediction probability of a data-dependent node-predicate
          branch (scalar walks) *)
  l1_size_bytes : int;
  l1_ways : int;
  l1_line_bytes : int;
  l1_miss_penalty : float;  (** cycles to L2 *)
  memory_overlap : float;
      (** fraction of miss latency hidden by out-of-order overlap, 0..1 *)
  icache_bytes : int;
  frontend_miss_penalty : float;
      (** cycles charged per instruction when code overflows the I-cache *)
  cores : int;
  smt_threads : int;  (** logical threads per core *)
  smt_yield : float;  (** extra throughput from the second SMT thread *)
  parallel_overhead : float;
      (** per-thread fork/join overhead factor used by the multicore model *)
  gather_latency : float;  (** the Intel-vs-AMD differentiator *)
  gather_uops : float;
  ooo_walk_overlap : float;
      (** independent adjacent walks the out-of-order window overlaps even
          without explicit interleaving *)
  loop_exit_mispredict_rate : float;
      (** probability the walk loop's exit branch mispredicts *)
  l2_size_bytes : int;
  l2_spill_penalty : float;
      (** multiplier on the L1 miss penalty once the model working set
          spills past L2 (captures L3/TLB pressure of bloated layouts) *)
  nominal_mhz : float;
      (** nominal clock used to convert modeled cycles into (virtual)
          microseconds — every virtual-time figure (Perf, the serving
          simulator's service model) goes through {!us_of_cycles}, so a
          target's simulated clock is declared here, not hardcoded at the
          conversion sites *)
}

val us_of_cycles : t -> float -> float
(** [us_of_cycles t cycles] = cycles / nominal_mhz: modeled cycles as
    virtual microseconds at the target's nominal clock. *)

val op_latency : t -> Tb_lir.Ops.op -> float
(** Serial result latency of an op on this target. *)

val op_uops : t -> Tb_lir.Ops.op -> float
(** Issue bandwidth an op consumes. *)

val intel_rocket_lake : t
(** Modeled after the Core i9-11900K testbed (8C/16T, fast gather). *)

val amd_ryzen7 : t
(** Modeled after the Ryzen 7 4700G testbed (8C/16T, microcoded gather). *)

val targets : t list
val by_name : string -> t
(** @raise Not_found for unknown target names. *)
