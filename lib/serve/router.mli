(** Routed admission: which shard serves a model.

    A sharded fleet wants each model's compiled artifact resident on as
    few shards as possible (so per-shard predictor caches stay hot) while
    rebalancing — adding or draining a shard — moves as few models as
    possible (each moved model pays a cold hydration or compile on its
    new shard). Two pluggable policies:

    - {e Hash}: [fnv1a64(model) mod N] over the live shards. Perfectly
      balanced but {e unstable}: resizing from N to N+1 remaps ~N/(N+1)
      of all keys.
    - {e Affinity}: consistent hashing — every live shard contributes
      [vnodes] pseudo-random points on a 64-bit ring; a model routes to
      the owner of the first point clockwise from its hash. Adding a
      shard moves only the keys that land on the new shard's points
      (≈ K/N of K keys); removing one moves only the removed shard's
      keys, and every untouched model keeps its shard — the affinity
      property the rebalancing tests pin down.

    Routers are immutable; {!add_shard}/{!remove_shard} return the
    resized router so a rebalance can compare old and new assignments.
    Routing is pure and deterministic ({!Tb_util.Hashing.fnv1a64}), so
    every process — and every run — agrees on the assignment. *)

type policy = Hash | Affinity

val policy_to_string : policy -> string

val policy_of_string : string -> (policy, string) result
(** ["hash"], ["affinity"]. *)

type t

val create : ?vnodes:int -> policy -> shards:int -> t
(** Router over shard ids [0 .. shards-1]. [vnodes] (default 64) is the
    ring points per shard — more points, smoother balance.
    @raise Invalid_argument when [shards < 1] or [vnodes < 1]. *)

val of_shard_ids : ?vnodes:int -> policy -> int list -> t
(** Router over an explicit live-shard id set (ids need not be dense —
    a drained shard leaves a hole).
    @raise Invalid_argument on an empty list, duplicates or negative
    ids. *)

val policy_of : t -> policy
val vnodes : t -> int

val shard_ids : t -> int list
(** Live shard ids, ascending. *)

val route : t -> string -> int
(** The live shard id serving this model. Pure. *)

val add_shard : t -> int -> t
(** @raise Invalid_argument when the id is negative or already live. *)

val remove_shard : t -> int -> t
(** @raise Invalid_argument when the id is not live or is the last
    one. *)

val to_json : t -> Tb_util.Json.t
