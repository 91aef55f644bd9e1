open Xkernel

type policy = Round_robin | Hash

type health = Healthy | Suspect | Dead

type endpoint = {
  ep_addr : Addr.Ip.t;
  ep_call :
    ?expires:float ->
    ?shard:Wire_fmt.Select.stamp ->
    command:int ->
    Msg.t ->
    (Msg.t, Rpc_error.t) result;
}

type replica = {
  r_idx : int;
  r_addr : Addr.Ip.t;
  r_call :
    ?expires:float ->
    ?shard:Wire_fmt.Select.stamp ->
    command:int ->
    Msg.t ->
    (Msg.t, Rpc_error.t) result;
  mutable r_health : health;
  mutable r_probe_fails : int; (* consecutive failed recovery probes *)
  mutable r_probe_armed : bool;
  mutable r_next_retry : float; (* earliest Dead re-probe (dead_retry_interval) *)
}

(* One shard-routed attempt currently on the wire: enough for a map
   install to find the stragglers bound for an ex-owner and force them
   over at the drain deadline. *)
type inflight = {
  if_shard : int;
  if_owner : int;
  if_force : int -> unit; (* settle the attempt with [Wrong_shard v] *)
}

type t = {
  host : Host.t;
  p : Proto.t;
  replicas : replica array;
  policy : policy;
  attempt_timeout : float;
  deadline : float;
  max_failovers : int;
  probation : float;
  probe_limit : int;
  probe_command : int;
  rng : Random.State.t;
  stats : Stats.t;
  mutable rr : int; (* round-robin cursor *)
  (* Overload governance (all off by default). *)
  propagate_deadline : bool;
  retry_budget : float option; (* tokens earned per call; None = unlimited *)
  token_cap : float;
  mutable tokens : float;
  hedge : bool;
  h_lat : Histogram.t; (* successful-call latency, for the hedge delay *)
  (* Sharded routing (all inert until a map is installed). *)
  drain_deadline : float option;
  probe_timeout : float option;
  dead_retry_interval : float option;
  mutable map : Shard_map.t option;
  mutable on_refresh : (unit -> unit) option;
  mutable shard_calls : int array; (* per-shard routed-call counts *)
  mutable inflight : inflight list;
  (* Per-call counters, resolved once at create time (hot path). *)
  c_call : Stats.counter;
  c_ok : Stats.counter;
  c_failed : Stats.counter;
  c_failover : Stats.counter;
  c_failover_ok : Stats.counter;
  c_attempt_timeout : Stats.counter;
  c_deadline_expired : Stats.counter;
  c_probe_sent : Stats.counter;
  c_probe_ok : Stats.counter;
  c_late_ok : Stats.counter;
  c_busy_rx : Stats.counter;
  c_exhausted : Stats.counter;
  c_hedge_sent : Stats.counter;
  c_hedge_win : Stats.counter;
  c_all_dead : Stats.counter;
  c_map_rx : Stats.counter;
  c_wrong_shard_rx : Stats.counter;
  c_handoff_forced : Stats.counter;
}

(* The hedge delay is the p99 of observed call latencies; with fewer
   samples than this the estimate is noise and hedging stays off. *)
let hedge_min_samples = 32

let proto t = t.p
let replica_count t = Array.length t.replicas
let health t i = t.replicas.(i).r_health

let failovers t = Stats.value t.c_failover
let probes_sent t = Stats.value t.c_probe_sent
let probes_ok t = Stats.value t.c_probe_ok

let map_version t =
  match t.map with None -> 0 | Some m -> Shard_map.version m

let shard_calls t = Array.copy t.shard_calls
let set_refresh t f = t.on_refresh <- Some f

(* Gauges: how many replicas this client currently distrusts. *)
let set_gauges t =
  let suspect = ref 0 and dead = ref 0 in
  Array.iter
    (fun r ->
      match r.r_health with
      | Suspect -> incr suspect
      | Dead -> incr dead
      | Healthy -> ())
    t.replicas;
  Stats.set t.stats "replica-suspect" !suspect;
  Stats.set t.stats "replica-dead" !dead

let mark_healthy t r =
  if r.r_health <> Healthy then begin
    r.r_health <- Healthy;
    Stats.incr t.stats (Printf.sprintf "replica%d-recovered" r.r_idx);
    set_gauges t
  end;
  r.r_probe_fails <- 0

(* Seeded jitter keeps a fleet of clients that suspected a replica
   together from probing it in lockstep forever. *)
let probe_delay t fails =
  t.probation
  *. (2. ** float_of_int fails)
  *. (1. +. (0.2 *. Random.State.float t.rng 1.))

(* One recovery probe, optionally bounded by [probe_timeout] so that
   deciding a crashed replica's fate costs [probe_timeout] instead of
   the lower stack's full RTO ladder.  A bounded probe that completes
   late with [Ok] still heals the replica, like any late success. *)
let probe_once t r =
  match t.probe_timeout with
  | None -> r.r_call ~command:t.probe_command Msg.empty
  | Some pt -> (
      let sim = Host.sim t.host in
      let iv = Sim.Ivar.create sim in
      let settled = ref false in
      Sim.spawn sim (fun () ->
          let res = r.r_call ~command:t.probe_command Msg.empty in
          if !settled then begin
            match res with Ok _ -> mark_healthy t r | Error _ -> ()
          end
          else begin
            settled := true;
            Sim.Ivar.fill iv res
          end);
      match Sim.Ivar.read_timeout iv pt with
      | Some res -> res
      | None ->
          settled := true;
          Error Rpc_error.Timeout)

(* Recovery probes: after probation, one null call decides.  Probing is
   capped — [probe_limit] consecutive failures mark the replica [Dead]
   and stop re-arming, so the event queue still drains when a replica
   never comes back.  A dead replica is resurrected by a last-resort
   call attempt that happens to succeed (see {!order}), or — when
   [dead_retry_interval] is set — by the periodic lazy re-probe fired
   from the call path (see {!maybe_retry_dead}). *)
let rec arm_probe t r ~delay =
  if not r.r_probe_armed then begin
    r.r_probe_armed <- true;
    ignore
      (Event.schedule t.host delay (fun () ->
           r.r_probe_armed <- false;
           if r.r_health = Suspect then begin
             Stats.tick t.c_probe_sent;
             match probe_once t r with
             | Ok _ ->
                 Stats.tick t.c_probe_ok;
                 mark_healthy t r
             | Error _ ->
                 r.r_probe_fails <- r.r_probe_fails + 1;
                 if r.r_probe_fails >= t.probe_limit then begin
                   r.r_health <- Dead;
                   (match t.dead_retry_interval with
                   | Some iv ->
                       r.r_next_retry <- Sim.now (Host.sim t.host) +. iv
                   | None -> ());
                   Stats.incr t.stats
                     (Printf.sprintf "replica%d-dead" r.r_idx);
                   set_gauges t
                 end
                 else arm_probe t r ~delay:(probe_delay t r.r_probe_fails)
           end))
  end

(* The Dead-permanence fix: with [dead_retry_interval] set, each call
   checks whether any Dead replica is due a re-probe and fires one in
   its own fiber.  Piggybacking on the call path (instead of a standing
   timer) keeps the event queue drainable when traffic stops and a
   replica never returns.  Seeded jitter staggers a fleet of clients
   that buried the replica together. *)
let maybe_retry_dead t =
  match t.dead_retry_interval with
  | None -> ()
  | Some interval ->
      let sim = Host.sim t.host in
      let now = Sim.now sim in
      Array.iter
        (fun r ->
          if r.r_health = Dead && now >= r.r_next_retry then begin
            r.r_next_retry <-
              now +. (interval *. (1. +. (0.2 *. Random.State.float t.rng 1.)));
            Sim.spawn sim (fun () ->
                Stats.tick t.c_probe_sent;
                match probe_once t r with
                | Ok _ ->
                    Stats.tick t.c_probe_ok;
                    mark_healthy t r
                | Error _ -> ())
          end)
        t.replicas

let mark_suspect t r =
  match r.r_health with
  | Healthy ->
      r.r_health <- Suspect;
      Stats.incr t.stats (Printf.sprintf "replica%d-suspect" r.r_idx);
      set_gauges t;
      arm_probe t r ~delay:(probe_delay t 0)
  | Suspect | Dead -> ()

(* Retry-budget token bucket: every call earns a fraction of a token,
   every failover or hedge spends a whole one, so retries are bounded to
   roughly [ratio] of the offered load no matter how hard the servers
   are struggling — the amplification governor. *)
let earn_token t =
  match t.retry_budget with
  | None -> ()
  | Some ratio -> t.tokens <- Float.min t.token_cap (t.tokens +. ratio)

let take_token t =
  match t.retry_budget with
  | None -> true
  | Some _ ->
      if t.tokens >= 1. then begin
        t.tokens <- t.tokens -. 1.;
        true
      end
      else false

(* One bounded attempt against one replica.  The call itself runs in
   its own fiber so the attempt can be abandoned after [budget] without
   waiting out the channel's full RTO ladder; an abandoned call still
   completes in the background, and a late success teaches the health
   tracker that the replica is alive after all.

   [hedge_to]: optionally race a second replica, launched [hedge_after]
   seconds in (if the primary has not settled by then, and a retry
   token is available); the first settlement wins, the loser is
   absorbed by the late-completion machinery. *)
let attempt t r ?hedge_to ?shard ~budget ~expires ~command msg =
  let sim = Host.sim t.host in
  let iv = Sim.Ivar.create sim in
  let settled = ref false in
  let launch r' ~is_hedge =
    Sim.spawn sim (fun () ->
        let res = r'.r_call ?expires ?shard ~command msg in
        if !settled then begin
          match res with
          | Ok _ ->
              Stats.tick t.c_late_ok;
              mark_healthy t r'
          | Error _ -> ()
        end
        else begin
          settled := true;
          (match res with
          | Ok _ ->
              mark_healthy t r';
              if is_hedge then Stats.tick t.c_hedge_win
          | Error _ -> ());
          Sim.Ivar.fill iv res
        end)
  in
  (* Shard-routed attempts register themselves so a map install can
     find the stragglers bound for an ex-owner and, at the drain
     deadline, settle them with [Wrong_shard] — the forced handoff. *)
  let entry =
    match shard with
    | None -> None
    | Some st ->
        let e =
          {
            if_shard = st.Wire_fmt.Select.shard;
            if_owner = r.r_idx;
            if_force =
              (fun v ->
                if not !settled then begin
                  settled := true;
                  Stats.tick t.c_handoff_forced;
                  Sim.Ivar.fill iv (Error (Rpc_error.Wrong_shard v))
                end);
          }
        in
        t.inflight <- e :: t.inflight;
        Some e
  in
  let unregister () =
    match entry with
    | None -> ()
    | Some e -> t.inflight <- List.filter (fun e' -> e' != e) t.inflight
  in
  launch r ~is_hedge:false;
  (match hedge_to with
  | Some (rh, hedge_after) ->
      Sim.spawn sim (fun () ->
          Sim.delay sim hedge_after;
          if (not !settled) && take_token t then begin
            Stats.tick t.c_hedge_sent;
            launch rh ~is_hedge:true
          end)
  | None -> ());
  match Sim.Ivar.read_timeout iv budget with
  | Some res ->
      unregister ();
      res
  | None ->
      unregister ();
      if !settled then
        (* A force event won the race against the budget timer. *)
        Error
          (Rpc_error.Wrong_shard (match t.map with
          | Some m -> Shard_map.version m
          | None -> 0))
      else begin
        settled := true;
        Stats.tick t.c_attempt_timeout;
        Error Rpc_error.Timeout
      end

(* Candidate order: start from the policy's preferred replica and walk
   successors (the consistent-hash ring walk, degenerate for
   round-robin), then stable-sort by health so healthy replicas are
   tried first and dead ones only as a last resort. *)
let health_walk t ~start =
  let k = Array.length t.replicas in
  let rank i =
    match t.replicas.(i).r_health with
    | Healthy -> 0
    | Suspect -> 1
    | Dead -> 2
  in
  List.init k (fun i -> (start + i) mod k)
  |> List.stable_sort (fun a b -> compare (rank a) (rank b))

let order t ~key =
  let k = Array.length t.replicas in
  let start =
    match (t.policy, key) with
    | Hash, Some key -> ((key mod k) + k) mod k
    | Hash, None | Round_robin, _ ->
        let c = t.rr in
        t.rr <- (t.rr + 1) mod k;
        c
  in
  health_walk t ~start

(* Map routing: under [Hash] with a map installed, the key picks a
   virtual shard and the map's owner is the preferred replica — the
   ring walk and health sort still provide failover successors.  The
   returned stamp travels with the request so an ex-owner can refuse
   it. *)
let route t ~key =
  match (t.policy, key, t.map) with
  | Hash, Some key, Some m ->
      let shard = Shard_map.shard_of_key m key in
      let start = Shard_map.owner m ~shard mod Array.length t.replicas in
      ( health_walk t ~start,
        Some
          {
            Wire_fmt.Select.shard;
            epoch = Shard_map.epoch m;
            version = Shard_map.version m;
          } )
  | _ -> (order t ~key, None)

(* Accept a strictly newer map.  With a [drain_deadline], shard-routed
   attempts still in flight toward an owner the new map revoked get a
   force event: if they have not completed by then, they settle with
   [Wrong_shard] (["handoff-forced"]) and the call re-routes — the
   bounded half of graceful handoff.  In-flight calls whose owner is
   unchanged, and all of them when no drain deadline is configured,
   complete where they are. *)
let install_map t m =
  let newer =
    match t.map with
    | None -> true
    | Some cur ->
        Shard_map.newer_than m ~epoch:(Shard_map.epoch cur)
          ~version:(Shard_map.version cur)
  in
  if newer then begin
    let old = t.map in
    t.map <- Some m;
    if Array.length t.shard_calls <> Shard_map.shard_count m then
      t.shard_calls <- Array.make (Shard_map.shard_count m) 0;
    Stats.tick t.c_map_rx;
    Stats.set t.stats "map-version" (Shard_map.version m);
    Trace.debugf (Host.sim t.host) ~host:t.host.Host.name
      "REPLICA installs shard map v%d" (Shard_map.version m);
    (match (old, t.drain_deadline) with
    | Some o, Some d ->
        let changed = Shard_map.diff o m in
        let doomed =
          List.filter
            (fun e ->
              List.mem e.if_shard changed
              && e.if_owner <> Shard_map.owner m ~shard:e.if_shard)
            t.inflight
        in
        if doomed <> [] then begin
          let v = Shard_map.version m in
          ignore
            (Event.schedule t.host d (fun () ->
                 List.iter (fun e -> e.if_force v) doomed))
        end
    | _ -> ())
  end;
  newer

let all_dead t =
  Array.for_all (fun r -> r.r_health = Dead) t.replicas

let call t ?key ~command msg =
  let sim = Host.sim t.host in
  Stats.tick t.c_call;
  earn_token t;
  maybe_retry_dead t;
  Machine.charge_one t.host.Host.mach Machine.Virtual_op;
  Trace.packet sim ~host:t.host.Host.name ~proto:"REPLICA" ~dir:`Send msg;
  if all_dead t then begin
    (* Every replica is dead and probing has stopped: sleeping out the
       overall deadline would learn nothing.  Fail terminally now. *)
    Stats.tick t.c_all_dead;
    Stats.tick t.c_failed;
    Error Rpc_error.Timeout
  end
  else begin
    let t0 = Sim.now sim in
    let deadline_at = t0 +. t.deadline in
    let expires = if t.propagate_deadline then Some deadline_at else None in
    let max_attempts = min (t.max_failovers + 1) (Array.length t.replicas) in
    let rec go ~refreshed ~stamp tried last_err = function
      | [] -> Error last_err
      | _ when tried >= max_attempts -> Error last_err
      | i :: rest -> (
          let r = t.replicas.(i) in
          let remaining = deadline_at -. Sim.now sim in
          if remaining <= 0. then begin
            Stats.tick t.c_deadline_expired;
            Error Rpc_error.Timeout
          end
          else begin
            if tried > 0 then Stats.tick t.c_failover;
            let budget = Float.min t.attempt_timeout remaining in
            let hedge_to =
              if
                t.hedge && tried = 0 && rest <> []
                && Histogram.count t.h_lat >= hedge_min_samples
              then
                let p99 =
                  float_of_int (Histogram.percentile t.h_lat 99.) *. 1e-6
                in
                if p99 > 0. && p99 < budget then
                  Some (t.replicas.(List.hd rest), p99)
                else None
              else None
            in
            match
              attempt t r ?hedge_to ?shard:stamp ~budget ~expires ~command msg
            with
            | Ok reply ->
                if tried > 0 then Stats.tick t.c_failover_ok;
                Ok reply
            | Error Rpc_error.Busy as e ->
                (* Explicit admission pushback: the server is up and
                   refusing load.  Not a health failure — a failover
                   here is exactly the retry storm the budget exists to
                   prevent. *)
                Stats.tick t.c_busy_rx;
                e
            | Error (Rpc_error.Wrong_shard _) as e ->
                (* The replica answered from a newer map (or a map
                   install forced the attempt over): not a health
                   failure, and no retry token — the server did no work.
                   Refresh the map and re-route once; a second
                   wrong-shard means the control plane is churning and
                   the error surfaces. *)
                Stats.tick t.c_wrong_shard_rx;
                if refreshed then e
                else begin
                  (match t.on_refresh with Some f -> f () | None -> ());
                  let idxs, stamp = route t ~key in
                  go ~refreshed:true ~stamp tried last_err idxs
                end
            | Error (Rpc_error.Remote _) as e ->
                (* The replica answered: retrying elsewhere could
                   re-execute a non-idempotent procedure. *)
                e
            | Error ((Rpc_error.Timeout | Rpc_error.Rebooted) as err) ->
                Stats.incr t.stats (Printf.sprintf "replica%d-fail" r.r_idx);
                mark_suspect t r;
                if rest = [] || tried + 1 >= max_attempts then
                  go ~refreshed ~stamp (tried + 1) err rest
                else if take_token t then go ~refreshed ~stamp (tried + 1) err rest
                else begin
                  (* Out of retry tokens: absorb the failure instead of
                     amplifying the overload with another attempt. *)
                  Stats.tick t.c_exhausted;
                  Error err
                end
          end)
    in
    let idxs, stamp = route t ~key in
    (match stamp with
    | Some st
      when st.Wire_fmt.Select.shard < Array.length t.shard_calls ->
        t.shard_calls.(st.Wire_fmt.Select.shard) <-
          t.shard_calls.(st.Wire_fmt.Select.shard) + 1
    | _ -> ());
    let res = go ~refreshed:false ~stamp 0 Rpc_error.Timeout idxs in
    (match res with
    | Ok reply ->
        Stats.tick t.c_ok;
        Histogram.record t.h_lat
          (int_of_float ((Sim.now sim -. t0) *. 1e6));
        Trace.packet sim ~host:t.host.Host.name ~proto:"REPLICA" ~dir:`Recv
          reply
    | Error _ -> Stats.tick t.c_failed);
    res
  end

let create ~host ?(policy = Round_robin) ?(attempt_timeout = 0.25)
    ?(deadline = 1.0) ?max_failovers ?(probation = 0.1) ?(probe_limit = 3)
    ?(probe_command = 1) ?(propagate_deadline = false) ?retry_budget
    ?(hedge = false) ?probe_timeout ?dead_retry_interval ?drain_deadline
    ?shard_map ?(below = []) ~endpoints () =
  let k = Array.length endpoints in
  if k < 1 then invalid_arg "Select_replica.create: no endpoints";
  if attempt_timeout <= 0. then
    invalid_arg "Select_replica.create: attempt_timeout <= 0";
  if deadline <= 0. then invalid_arg "Select_replica.create: deadline <= 0";
  (match retry_budget with
  | Some r when r < 0. -> invalid_arg "Select_replica.create: retry_budget < 0"
  | _ -> ());
  (match probe_timeout with
  | Some v when v <= 0. -> invalid_arg "Select_replica.create: probe_timeout <= 0"
  | _ -> ());
  (match dead_retry_interval with
  | Some v when v <= 0. ->
      invalid_arg "Select_replica.create: dead_retry_interval <= 0"
  | _ -> ());
  (match drain_deadline with
  | Some v when v < 0. ->
      invalid_arg "Select_replica.create: drain_deadline < 0"
  | _ -> ());
  let max_failovers =
    match max_failovers with
    | Some n when n >= 0 -> n
    | Some _ -> invalid_arg "Select_replica.create: max_failovers < 0"
    | None -> k - 1
  in
  let p = Proto.create ~host ~name:"REPLICA" ~virtual_:true () in
  let stats = Proto.stats p in
  let t =
    {
      host;
      p;
      replicas =
        Array.mapi
          (fun i ep ->
            {
              r_idx = i;
              r_addr = ep.ep_addr;
              r_call = ep.ep_call;
              r_health = Healthy;
              r_probe_fails = 0;
              r_probe_armed = false;
              r_next_retry = 0.;
            })
          endpoints;
      policy;
      attempt_timeout;
      deadline;
      max_failovers;
      probation;
      probe_limit;
      probe_command;
      rng = Sim.rng (Host.sim host);
      stats;
      rr = 0;
      propagate_deadline;
      retry_budget;
      token_cap =
        (match retry_budget with
        | Some r -> Float.max 1. (10. *. r)
        | None -> 0.);
      tokens =
        (match retry_budget with Some r -> Float.max 1. (10. *. r) | None -> 0.);
      hedge;
      h_lat = Histogram.create ~max_value:100_000_000 ();
      drain_deadline;
      probe_timeout;
      dead_retry_interval;
      map = None;
      on_refresh = None;
      shard_calls = [||];
      inflight = [];
      c_call = Stats.counter stats "call";
      c_ok = Stats.counter stats "ok";
      c_failed = Stats.counter stats "failed";
      c_failover = Stats.counter stats "failovers";
      c_failover_ok = Stats.counter stats "failover-ok";
      c_attempt_timeout = Stats.counter stats "attempt-timeout";
      c_deadline_expired = Stats.counter stats "deadline-expired";
      c_probe_sent = Stats.counter stats "probe-sent";
      c_probe_ok = Stats.counter stats "probe-ok";
      c_late_ok = Stats.counter stats "late-ok";
      c_busy_rx = Stats.counter stats "busy-reject-rx";
      c_exhausted = Stats.counter stats "retry-budget-exhausted";
      c_hedge_sent = Stats.counter stats "hedge-sent";
      c_hedge_win = Stats.counter stats "hedge-win";
      c_all_dead = Stats.counter stats "all-dead";
      c_map_rx = Stats.counter stats "map-update-rx";
      c_wrong_shard_rx = Stats.counter stats "wrong-shard-rx";
      c_handoff_forced = Stats.counter stats "handoff-forced";
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Select_replica: use call");
      open_enable =
        (fun ~upper:_ _ -> invalid_arg "Select_replica: client-side only");
      open_done = (fun ~upper:_ _ -> invalid_arg "Select_replica: use call");
      demux =
        (fun ~lower:_ _ ->
          (* Headerless virtual protocol: replies come back through the
             per-replica call path, never by demux. *)
          Stats.incr t.stats "rx-unexpected");
      p_control =
        (fun req ->
          match req with
          | Control.Install_map bytes -> (
              (* The MAP control plane lands here. *)
              match Shard_map.decode bytes with
              | None -> Control.Unsupported
              | Some m ->
                  ignore (install_map t m);
                  Control.R_unit)
          | Control.Get_map_version when t.map <> None ->
              Control.R_int (map_version t)
          | req -> Stats.control t.stats req);
    };
  if below <> [] then Proto.declare_below p below;
  set_gauges t;
  (match shard_map with Some m -> ignore (install_map t m) | None -> ());
  t

let of_select ~host ~select ~servers ?policy ?attempt_timeout ?deadline
    ?max_failovers ?probation ?probe_limit ?probe_command ?propagate_deadline
    ?retry_budget ?hedge ?probe_timeout ?dead_retry_interval ?drain_deadline
    ?shard_map () =
  let endpoints =
    Array.map
      (fun addr ->
        (* Connect lazily, from inside the first calling fiber, like
           every Stacks builder does. *)
        let cl = ref None in
        {
          ep_addr = addr;
          ep_call =
            (fun ?expires ?shard ~command msg ->
              let c =
                match !cl with
                | Some c -> c
                | None ->
                    let c = Select.connect select ~server:addr in
                    cl := Some c;
                    c
              in
              Select.call c ?expires ?shard ~command msg);
        })
      servers
  in
  create ~host ?policy ?attempt_timeout ?deadline ?max_failovers ?probation
    ?probe_limit ?probe_command ?propagate_deadline ?retry_budget ?hedge
    ?probe_timeout ?dead_retry_interval ?drain_deadline ?shard_map
    ~below:[ Select.proto select ]
    ~endpoints ()
