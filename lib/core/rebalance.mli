(** Chaos-driven shard rebalancing policy.

    A periodic controller that watches two signals — per-replica health
    (as the clients' {!Select_replica} machines see it) and per-shard
    load — and emits new map generations through a
    {!Shard_map.Coordinator}:

    - {b crash}: a replica declared [Dead] that still owns shards has
      them all reassigned to their best live rendezvous candidates in
      one generation (["rebalance-crash"] in the coordinator's stats).
    - {b skew}: when the hottest live replica carries more than
      [skew_ratio] times the coldest's load for [sustain] consecutive
      ticks, the hottest shard moves to the coldest replica
      (["rebalance-skew"]) and the streak resets — hysteresis, so one
      noisy interval never moves anything and each move must re-earn
      its evidence under the new map.  A move is only taken when the
      shard's load is smaller than the hot/cold gap, so it genuinely
      narrows the imbalance; the hottest shard that passes that guard
      moves, so a monolithic hot shard never ping-pongs — its owner's
      other shards drain away around it instead.

    The controller only ever runs when an experiment starts it; nothing
    here is wired into any default stack. *)

type t

val create :
  host:Xkernel.Host.t ->
  coord:Shard_map.Coordinator.t ->
  replica_health:(int -> [ `Up | `Dead ]) ->
  shard_load:(unit -> int array) ->
  ?interval:float ->
  ?skew_ratio:float ->
  ?sustain:int ->
  ?on_crash:bool ->
  ?on_skew:bool ->
  unit ->
  t
(** [replica_health] is the controller's view of replica [i] (typically
    aggregated over the clients' health machines); [shard_load] returns
    {e cumulative} per-shard call counts — the controller diffs
    successive snapshots itself.  [interval] (default 50 ms) is the
    tick period; [skew_ratio] (default 3.0) and [sustain] (default 2
    ticks) gate the skew policy. *)

val start : t -> until:float -> unit
(** Snapshot the load baseline and arm the periodic tick, re-arming
    after each fire while the current time is at most [until] —
    bounded, so the event queue drains. *)

val tick : t -> unit
(** One decision step (exposed for tests). *)

val moves : t -> int
(** Shards moved by decisions taken so far. *)

(** {2 Signals aggregated over the clients' REPLICA layers} *)

val majority_health : Select_replica.t array -> int -> [ `Up | `Dead ]
(** [majority_health replicas i] is [`Dead] when at least half of the
    clients' health machines ([replicas], one per client) hold replica
    [i] [Dead] — a [replica_health] for {!create}. *)

val summed_shard_load :
  Select_replica.t array -> shards:int -> unit -> int array
(** [summed_shard_load replicas ~shards] sums the clients'
    {!Select_replica.shard_calls} over [shards] shards — a cumulative
    [shard_load] for {!create}. *)
