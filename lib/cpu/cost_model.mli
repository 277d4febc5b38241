(** Pipeline cost model: exact dynamic event counts → cycle estimate with a
    top-down stall attribution (retiring / front-end / bad speculation /
    back-end memory / back-end core).

    The model is deliberately simple and fully deterministic:
    - {e retiring} = µops / issue width (useful work);
    - {e back-end core} = dependency-chain latency not hidden by
      instruction-level parallelism (what tree-walk interleaving attacks);
    - {e back-end memory} = L1 misses × penalty, partially overlapped;
    - {e bad speculation} = mispredicted data-dependent predicate branches
      (scalar walks) + one loop-exit miss per leaf-checked walk;
    - {e front-end} = per-instruction fetch penalty once the walk code
      overflows the I-cache (what tree reordering attacks; dominant for
      Treelite-style if-else expansion). *)

type workload = {
  rows : int;
  walks_checked : int;  (** walks executed with termination checks *)
  walks_unrolled : int;
  steps_checked : int;  (** tile steps carrying a leaf check *)
  steps_unchecked : int;  (** unrolled/peeled tile steps *)
  leaf_fetches : int;
  critical_steps : int;
      (** Σ over jam sets of the longest walk in the set — the number of
          steps on the serial critical path after interleaving *)
  l1 : Cache.stats;
  code_bytes : int;
  model_bytes : int;  (** in-memory model size (drives L2-spill penalty) *)
  tile_size : int;
  layout : Tb_lir.Layout.kind;
}

type breakdown = {
  cycles : float;
  instructions : float;
  retiring : float;
  frontend : float;
  bad_speculation : float;
  backend_memory : float;
  backend_core : float;
}

val estimate : Config.t -> workload -> breakdown

val cycles_per_row : breakdown -> workload -> float
