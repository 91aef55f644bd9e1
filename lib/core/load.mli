(** Load generation: closed- and open-loop workloads with HDR latency
    histograms.

    The paper (§4) reports only averaged null-RPC round trips between
    two hosts.  This module asks the production-scale question instead:
    what do the latency percentiles do as offered load approaches
    saturation, and where is the knee?  It has two drivers:

    - {b closed loop} ({!run_closed}): N client fibers spread across
      the client hosts of a {!Netproto.World.fanin}, each issuing
      back-to-back calls with optional think time.  Offered load is
      implicit (throughput = concurrency / round trip) and the system
      can never be overrun — the classic benchmarking loop, which is
      exactly why it hides overload.
    - {b open loop} ({!open_loop}): the one open-loop driver.  It runs
      any call function over any world; {!run_open} (the {!Stacks.fan}
      capacity sweep) and the failover, rebalance, overload, INC and
      shardscale experiments are all thin callers.

    {2 Open-loop semantics}

    - {b Warm-up.}  Each of the [clients] client hosts first runs its
      [warm] function in its own fiber (ARP, channel sessions, RTT
      estimators); the last one to finish starts the dispatcher.
    - {b Window start.}  The dispatcher idles until [start_at] if that
      is still ahead (so a fixed chaos schedule can be laid out in
      advance), then opens the measured window: [t0] is that instant
      and [on_start] runs.  Warm-up never overlaps measurement.
    - {b Arrivals.}  [arrivals] arrivals at aggregate [rate]
      calls/second: {!Uniform} spacing [1/rate] or {!Poisson}
      exponential gaps drawn from the world's seeded {!Xkernel.Sim}
      rng, one draw between consecutive arrivals and none after the
      last.  Arrival [k] belongs to client host [k mod clients].  The
      schedule is independent of completions — no coordinated
      omission.
    - {b Window and shedding.}  At most [window] calls are pending; an
      arrival that finds the window full is {e shed} and counted
      rather than queued without bound.  Every other arrival runs
      [call ~client k] in a fiber of its own, spawned at its arrival
      instant; once every call has returned, completed + failed + shed
      = arrivals.
    - {b Latency.}  Every resolved call — [Ok] or [Error] — records its
      arrival-to-reply time in microseconds into its client's
      histogram; [t_end] is the last resolution.
    - {b Phases.}  Optional boundaries [b1 < b2 < ...] split time into
      phases; phase [p] starts at the [p]th boundary.  A completed call
      counts toward the phase of its completion instant (with an OK-only
      histogram per phase), a shed arrival toward the phase of its
      arrival instant.

    Everything is deterministic for a fixed world seed: same
    configuration, same JSON, byte for byte.  {!run_open} and
    {!run_closed} also sample the server's run-queue depth and export
    it — with wire utilization, shed and pending peaks — as gauges in a
    registered [load/<config>] {!Xkernel.Stats} table. *)

type arrival = Uniform | Poisson
(** Interarrival law for {!open_loop}: constant [1/rate], or
    exponential with mean [1/rate] (memoryless — the standard model of
    aggregated independent callers). *)

type result = {
  r_config : string;  (** {!Stacks.fan.fan_name} *)
  r_mode : string;  (** ["closed"], ["open-uniform"] or ["open-poisson"] *)
  offered_rps : float;
      (** configured arrival rate (open loop); achieved rate (closed
          loop, where offered load is implicit) *)
  achieved_rps : float;  (** completed calls / elapsed *)
  arrivals : int;  (** calls asked for, including shed ones *)
  completed : int;
  failed : int;  (** calls that returned an RPC error (e.g. Timeout) *)
  shed : int;  (** open loop: arrivals refused at a full window *)
  elapsed_s : float;  (** first arrival to last completion, virtual *)
  wire_util : float;  (** fraction of wire capacity consumed, 0..1 *)
  queue_depth_max : int;  (** peak sampled server CPU run-queue depth *)
  pending_max : int;  (** peak calls in flight *)
  hist : Xkernel.Histogram.t;  (** all clients merged, microseconds *)
  per_client : Xkernel.Histogram.t array;  (** one per client host *)
}

val new_hist : unit -> Xkernel.Histogram.t
(** A histogram configured like the ones in {!result} (microseconds,
    up to 100 s) — mergeable with them. *)

val us_of : float -> int
(** Seconds to rounded microseconds — the unit {!result} histograms
    record. *)

val run_closed :
  ?fibers:int ->
  ?calls:int ->
  ?warmup:int ->
  ?think:float ->
  ?size:int ->
  Netproto.World.fanin ->
  Stacks.fan ->
  result
(** [run_closed fanin fan] spreads [fibers] (default 8) closed-loop
    fibers round-robin across the client hosts; each issues [warmup]
    (default 2, unrecorded) then [calls] (default 25) null-procedure
    calls of [size] bytes (default 0), sleeping [think] seconds
    (default 0) after each.  All fibers warm up before the measured
    phase starts.  Drives the world to completion. *)

type phase = {
  mutable ph_ok : int;  (** calls completed [Ok] inside the phase *)
  ph_hist : Xkernel.Histogram.t;  (** their latencies, microseconds *)
  mutable ph_shed : int;  (** arrivals shed inside the phase *)
}

type open_run = {
  o_completed : int;
  o_failed : int;  (** calls whose [call] returned [Error] *)
  o_shed : int;
  o_pending_max : int;  (** peak calls in flight *)
  o_t0 : float;  (** measured window start (virtual seconds) *)
  o_t_end : float;  (** last resolution, or [o_t0] if none *)
  o_hist : Xkernel.Histogram.t;  (** all clients merged *)
  o_per_client : Xkernel.Histogram.t array;
  o_phases : phase array;  (** one more than the boundaries given *)
}

val open_loop :
  clients:int ->
  warm:(int -> unit) ->
  ?start_at:float ->
  ?on_start:(drained:(unit -> bool) -> unit) ->
  ?phases:float list ->
  arrival:arrival ->
  rate:float ->
  arrivals:int ->
  window:int ->
  call:(client:int -> int -> ('a, 'e) Stdlib.result) ->
  Netproto.World.t ->
  open_run
(** [open_loop ~clients ~warm ~arrival ~rate ~arrivals ~window ~call w]
    runs the open-loop schedule described above and drives [w] to
    completion.  [start_at] defaults to [0.] (start as soon as warm-up
    ends); [on_start ~drained] runs at [t0], where [drained ()] turns
    true once every arrival has been dispatched and every call has
    resolved — a background fiber started there must stop by then, or
    the world never drains.  [phases] defaults to none (one phase).
    @raise Invalid_argument if [rate <= 0] or [window < 1]. *)

val run_open :
  ?arrival:arrival ->
  ?arrivals:int ->
  ?window:int ->
  ?warmup:int ->
  ?size:int ->
  rate:float ->
  Netproto.World.fanin ->
  Stacks.fan ->
  result
(** [run_open ~rate fanin fan] is {!open_loop} with null-procedure
    calls of [size] bytes (default 0): [arrivals] (default 200)
    arrivals at [rate] ([arrival] defaults to {!Poisson}), each client
    host first making [warmup] (default 1, at least 1) unrecorded
    calls, [window] defaulting to 32. *)

val to_json : result -> Xkernel.Json.t
(** One row: config, mode, offered/achieved rates, counters, elapsed,
    wire utilization, queue/pending peaks, and the merged histogram
    summary under ["latency_us"]. *)
