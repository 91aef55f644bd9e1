(* The three workloads: seeded inputs, set-up, and the closed- and
   open-loop drivers.  Everything here runs in virtual time and is
   deterministic for a seed; wall-clock timing lives in main.ml. *)

open Xkernel
module World = Netproto.World
module Stacks = Rpc.Stacks

type name = Null_rpc | Bulk_rpc | Switched_mix

let all =
  [ ("null_rpc", Null_rpc); ("bulk_rpc", Bulk_rpc); ("switched_mix", Switched_mix) ]
let to_string n = fst (List.find (fun (_, m) -> m = n) all)

(* A null-procedure call (null reply), or an echo of a hot (repeated)
   or cold (never repeated) argument. *)
type kind = Null | Hot | Cold

let kind_name = function Null -> "null" | Hot -> "hot" | Cold -> "cold"
let command = function Null -> Stacks.cmd_null | Hot | Cold -> Stacks.cmd_echo

(* One call the program is asked to make.  [unit_due] is its arrival
   time in a schedule of 1 call per virtual second; an open-loop run at
   [rate] scales it by [1/rate], so every rate probed by the capacity
   search sees the same schedule.  Closed-loop runs ignore it. *)
type arrival = { unit_due : float; client : int; kind : kind; body : Msg.t }

(* --- inputs ------------------------------------------------------------ *)

(* 10k measured calls give p99.9 ten samples beyond it; the switched mix
   measures 20k arrivals. *)
let calls = function
  | Null_rpc | Bulk_rpc -> 10_000
  | Switched_mix -> 20_000

let switched_clients = 4
let switched_servers = 2
let hot_keys = 8

(* Offered rate of the measured switched_mix run, about two thirds of
   its capacity (~1100 calls/s with p99 <= 10 ms). *)
let switched_rate = 700.

let inputs ~seed wl =
  let n = calls wl in
  let tag = match wl with Null_rpc -> 1 | Bulk_rpc -> 2 | Switched_mix -> 3 in
  let st = Random.State.make [| seed; tag |] in
  let evenly i body = { unit_due = float_of_int i; client = 0; kind = Null; body } in
  match wl with
  | Null_rpc ->
      (* Closed-loop workloads have no arrival process of their own;
         the capacity search paces their calls evenly. *)
      Array.init n (fun i -> evenly i Msg.empty)
  | Bulk_rpc ->
      (* The paper's section 4 sweep: 1-16 KB requests in 1 KB steps,
         null replies.  Each size is equally frequent and the seed
         shuffles their order, so percentiles do not flip between
         neighbouring sizes from one seed to the next. *)
      let bodies = Array.init 16 (fun k -> Msg.fill ((k + 1) * 1024) 'b') in
      let sizes = Array.init n (fun i -> i mod 16) in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = sizes.(i) in
        sizes.(i) <- sizes.(j);
        sizes.(j) <- t
      done;
      Array.init n (fun i -> evenly i bodies.(sizes.(i)))
  | Switched_mix ->
      (* Poisson arrivals, round-robin over the clients.  Half are hot
         echoes over a few keys (switch cache hits), 30% cold 512-byte
         echoes that never repeat (misses that reach a server), 20% null
         calls (not cacheable). *)
      let filler = Msg.fill 500 'c' in
      let hot =
        Array.init hot_keys (fun k -> Msg.of_string (Printf.sprintf "hot%d" k))
      in
      let t = ref 0. in
      Array.init n (fun i ->
          let unit_due = !t in
          t := !t -. log (1. -. Random.State.float st 1.);
          let u = Random.State.float st 1. in
          let kind, body =
            if u < 0.5 then (Hot, hot.(Random.State.int st hot_keys))
            else if u < 0.8 then
              (Cold, Msg.append (Msg.of_string (Printf.sprintf "cold%08d" i)) filler)
            else (Null, Msg.empty)
          in
          { unit_due; client = i mod switched_clients; kind; body })

(* --- set-up ------------------------------------------------------------ *)

type rig = {
  sim : Sim.t;
  call : int -> command:int -> Msg.t -> (Msg.t, Rpc.Rpc_error.t) result;
  clients : Machine.t array;
  servers : Machine.t array;
  switch : Machine.t array;
  wires : Wire.t array;
  server_wires : Wire.t array;
  inc : Rpc.Inc.t option;
  admits : Rpc.Admit.t array;
  phase_wall : float array;  (** world, stack, warm-up wall seconds *)
}

let max_events = 1_000_000_000

(* Drive [sim] in short virtual slices until [cond] holds.  Slicing does
   not change the schedule: [Sim.run ~until] only stops the loop. *)
let run_until sim cond =
  while not (cond ()) do
    if Sim.pending sim = 0 then failwith "perfbench: simulation ran dry";
    Sim.run ~until:(Sim.now sim +. 0.01) sim
  done

let expect_ok what = function
  | Ok _ -> ()
  | Error e ->
      failwith
        (Printf.sprintf "perfbench: %s failed: %s" what (Rpc.Rpc_error.to_string e))

let mach (h : Host.t) = h.Host.mach

(* [warm] calls per client, in parallel across clients.  A cold
   switched path costs ~0.3 virtual seconds (VIP's gateway fallback),
   so every client must have reached every replica before measuring:
   four round-robin calls per client reach each of the two replicas
   twice. *)
let warm_up rig ~clients ~calls ~kind =
  let left = ref clients in
  for i = 0 to clients - 1 do
    Sim.spawn rig.sim (fun () ->
        for j = 1 to calls do
          let body =
            if kind = Null then Msg.empty
            else Msg.of_string (Printf.sprintf "warm%d.%d" i j)
          in
          expect_ok "warm-up call" (rig.call i ~command:(command kind) body)
        done;
        decr left)
  done;
  run_until rig.sim (fun () -> !left = 0)

let setup wl =
  Stats.reset_registry ();
  let phase_wall = Array.make 3 0. in
  let timed k f =
    let t0 = Refclock.now () in
    let x = f () in
    phase_wall.(k) <- Refclock.now () -. t0;
    x
  in
  match wl with
  | Null_rpc | Bulk_rpc ->
      let w = timed 0 (fun () -> World.create ~max_events ()) in
      let e = timed 1 (fun () -> Stacks.lrpc w) in
      let rig =
        {
          sim = w.World.sim;
          call = (fun _ ~command msg -> e.Stacks.call ~command msg);
          clients = [| mach e.Stacks.client_host |];
          servers = [| mach e.Stacks.server_host |];
          switch = [||];
          wires = [| w.World.wire |];
          server_wires = [| w.World.wire |];
          inc = None;
          admits = [||];
          phase_wall;
        }
      in
      timed 2 (fun () -> warm_up rig ~clients:1 ~calls:3 ~kind:Null);
      rig
  | Switched_mix ->
      let sw =
        timed 0 (fun () ->
            World.create_switched ~max_events ~clients:switched_clients
              ~servers:switched_servers ())
      in
      let s, inc =
        timed 1 (fun () ->
            Stacks.lrpc_switched ~policy:Rpc.Select_replica.Round_robin
              ~attempt_timeout:0.5 ~deadline:2.0 ~admit:Rpc.Admit.default
              ~propagate_deadline:true ~inc_cacheable:[ Stacks.cmd_echo ] sw)
      in
      let wires = World.switched_wires sw in
      let rig =
        {
          sim = sw.World.sw.World.fo.World.sim;
          call = (fun i ~command msg -> s.Stacks.fos_call i ~command msg);
          clients = Array.map mach s.Stacks.fos_clients;
          servers = Array.map mach s.Stacks.fos_servers;
          switch = World.switch_machines sw;
          wires = Array.of_list (List.map snd wires);
          server_wires =
            Array.init switched_servers (fun k ->
                World.port_wire sw ~label:(Printf.sprintf "s%d" k));
          inc;
          admits = s.Stacks.fos_admits;
          phase_wall;
        }
      in
      timed 2 (fun () ->
          warm_up rig ~clients:switched_clients ~calls:4 ~kind:Cold);
      rig

(* --- measured run ------------------------------------------------------ *)

(* Counters read at the first dispatch and at the last resolution of a
   run, from inside the simulation, so they cover exactly the measured
   calls. *)
type snap = {
  events : int;
  minor : float;
  promoted : float;
  majors : int;
  server_cpu : float;
  server_wait : float;
  client_cpu : float;
  switch_cpu : float;
  wire_frames : int;
  wire_bytes : int;
  server_wire_bytes : int;
  inc_hits : int;
  admitted : int;
  registry : (string * (string * int) list) list;
}

let sum f a = Array.fold_left (fun acc x -> acc +. f x) 0. a
let isum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

let snapshot ~registry rig =
  let gc = Gc.quick_stat () in
  {
    events = Sim.processed rig.sim;
    minor = Gc.minor_words ();
    promoted = gc.Gc.promoted_words;
    majors = gc.Gc.major_collections;
    server_cpu = sum Machine.cpu_seconds rig.servers;
    server_wait = sum Machine.cpu_wait_seconds rig.servers;
    client_cpu = sum Machine.cpu_seconds rig.clients;
    switch_cpu = sum Machine.cpu_seconds rig.switch;
    wire_frames = isum (fun w -> (Wire.stats w).Wire.frames) rig.wires;
    wire_bytes = isum (fun w -> (Wire.stats w).Wire.bytes) rig.wires;
    server_wire_bytes =
      isum (fun w -> (Wire.stats w).Wire.bytes) rig.server_wires;
    inc_hits = Option.fold ~none:0 ~some:Rpc.Inc.hits rig.inc;
    admitted = isum Rpc.Admit.admitted rig.admits;
    registry =
      (if registry then
         List.map (fun (n, t) -> (n, Stats.to_list t)) (Stats.registered ())
       else []);
  }

(* Outcome codes per arrival. *)
let pending = 'p'
let ok = 'o'
let failed = 'f'
let shed = 's'
let wrong = 'w'

type run = {
  rig : rig;
  arrivals : arrival array;
  start : Float.Array.t;
      (** virtual start: due time (open loop) or send time (closed loop) *)
  finish : Float.Array.t;
  outcome : Bytes.t;
  mutable attempted : int;  (** arrivals handed to a fiber or shed *)
  mutable resolved : int;
  mutable in_flight : int;
  mutable dispatched : bool;
  mutable done_ : bool;
  mutable depth_max : int;
  mutable late_max : float;  (** open loop: dispatch time minus due time *)
  mutable first : snap option;
  mutable last : snap option;
  mutable on_resolve : int -> unit;  (** called with each resolved call *)
}

(* Byte for byte: a null call returns nothing, an echo its argument. *)
let reply_ok a reply =
  if a.kind = Null then Msg.is_empty reply else Msg.equal reply a.body

let sample_depth r =
  let d =
    Array.fold_left (fun m x -> max m (Machine.queue_depth x)) 0 r.rig.servers
  in
  if d > r.depth_max then r.depth_max <- d

let resolve ~registry r i code =
  Float.Array.set r.finish i (Sim.now r.rig.sim);
  Bytes.set r.outcome i code;
  r.resolved <- r.resolved + 1;
  r.on_resolve i;
  sample_depth r;
  if r.dispatched && r.resolved = Array.length r.arrivals then begin
    r.last <- Some (snapshot ~registry r.rig);
    r.done_ <- true
  end

let call_one ~registry r i =
  let a = r.arrivals.(i) in
  sample_depth r;
  let code =
    match r.rig.call a.client ~command:(command a.kind) a.body with
    | Ok reply -> if reply_ok a reply then ok else wrong
    | Error _ -> failed
  in
  resolve ~registry r i code

let make rig arrivals =
  let n = Array.length arrivals in
  {
    rig;
    arrivals;
    start = Float.Array.make n 0.;
    finish = Float.Array.make n 0.;
    outcome = Bytes.make n pending;
    attempted = 0;
    resolved = 0;
    in_flight = 0;
    dispatched = false;
    done_ = false;
    depth_max = 0;
    late_max = 0.;
    first = None;
    last = None;
    on_resolve = ignore;
  }

(** One closed-loop caller on client 0: each call is sent when the
    previous one returns. *)
let start_closed ?(registry = false) rig arrivals =
  let r = make rig arrivals in
  Sim.spawn rig.sim (fun () ->
      r.first <- Some (snapshot ~registry rig);
      r.dispatched <- Array.length arrivals = 0;
      Array.iteri
        (fun i _ ->
          Float.Array.set r.start i (Sim.now rig.sim);
          if i = Array.length arrivals - 1 then r.dispatched <- true;
          r.attempted <- r.attempted + 1;
          call_one ~registry r i)
        arrivals);
  r

(** Open-loop arrivals at [rate] calls per virtual second.  The
    dispatcher only sleeps until each due time, so it is never late in
    virtual time ([late_max] records the check); an arrival that finds
    [window] calls in flight is shed. *)
let start_open ?(registry = false) ~rate ~window rig arrivals =
  let r = make rig arrivals in
  Sim.spawn rig.sim (fun () ->
      r.first <- Some (snapshot ~registry rig);
      let t0 = Sim.now rig.sim in
      let n = Array.length arrivals in
      r.dispatched <- n = 0;
      Array.iteri
        (fun i a ->
          let due = t0 +. (a.unit_due /. rate) in
          let now = Sim.now rig.sim in
          if due > now then Sim.delay rig.sim (due -. now);
          let late = Sim.now rig.sim -. due in
          if late > r.late_max then r.late_max <- late;
          Float.Array.set r.start i due;
          if i = n - 1 then r.dispatched <- true;
          r.attempted <- r.attempted + 1;
          if r.in_flight >= window then resolve ~registry r i shed
          else begin
            r.in_flight <- r.in_flight + 1;
            Sim.spawn rig.sim (fun () ->
                call_one ~registry r i;
                r.in_flight <- r.in_flight - 1)
          end)
        arrivals);
  r

let window = function Null_rpc | Bulk_rpc -> 32 | Switched_mix -> 64

let start ?registry wl rig arrivals =
  match wl with
  | Null_rpc | Bulk_rpc -> start_closed ?registry rig arrivals
  | Switched_mix ->
      start_open ?registry ~rate:switched_rate ~window:(window wl) rig arrivals

(* --- virtual-time summary --------------------------------------------- *)

type summary = {
  attempted : int;
  completed : int;
  n_failed : int;
  n_shed : int;
  n_wrong : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  goodput : float;  (** completed calls per virtual second *)
  payload_kbs : float;  (** request+reply payload KB per virtual second *)
  server_vcpu_us : float;  (** per completed call *)
  events_per_call : float;
  minor_per_call : float;
  promoted_per_call : float;
  elapsed : float;  (** first arrival to last completion, virtual s *)
  late_max_us : float;
}

(* Nearest-rank percentile over a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(** Every dispatched call was resolved exactly once: [attempted] is
    counted where the dispatcher hands an arrival to a fiber or sheds it,
    independently of the outcomes. *)
let balanced r =
  let outcomes = Bytes.fold_left (fun n c -> if c = pending then n else n + 1) 0 r.outcome in
  outcomes = r.attempted && r.resolved = r.attempted

let count r code =
  let c = ref 0 in
  Bytes.iter (fun x -> if x = code then incr c) r.outcome;
  !c

let summarise r =
  let first = Option.get r.first and last = Option.get r.last in
  let n = Array.length r.arrivals in
  let lats = ref [] and payload = ref 0 in
  for i = n - 1 downto 0 do
    if Bytes.get r.outcome i = ok then begin
      let a = r.arrivals.(i) and len = Msg.length r.arrivals.(i).body in
      lats := ((Float.Array.get r.finish i -. Float.Array.get r.start i) *. 1e6) :: !lats;
      payload := !payload + if a.kind = Null then len else 2 * len
    end
  done;
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let completed = Array.length sorted in
  let t_first = if n = 0 then 0. else Float.Array.get r.start 0 in
  let t_last = Float.Array.fold_left max t_first r.finish in
  let elapsed = t_last -. t_first in
  let per_call x = x /. float_of_int (max 1 completed) in
  {
    attempted = r.attempted;
    completed;
    n_failed = count r failed;
    n_shed = count r shed;
    n_wrong = count r wrong;
    p50_us = percentile sorted 50.;
    p99_us = percentile sorted 99.;
    p999_us = percentile sorted 99.9;
    goodput = float_of_int completed /. elapsed;
    payload_kbs = float_of_int !payload /. 1000. /. elapsed;
    server_vcpu_us = per_call ((last.server_cpu -. first.server_cpu) *. 1e6);
    events_per_call = per_call (float_of_int (last.events - first.events));
    minor_per_call = per_call (last.minor -. first.minor);
    promoted_per_call = per_call (last.promoted -. first.promoted);
    elapsed;
    late_max_us = r.late_max *. 1e6;
  }

(** Runs [arrivals] to completion on a fresh rig. *)
let run_to_end ?registry wl arrivals =
  let rig = setup wl in
  let r = start ?registry wl rig arrivals in
  run_until rig.sim (fun () -> r.done_);
  r

(* --- capacity search --------------------------------------------------- *)

(* Latency limit on p99 for the capacity search.  A 16 KB call alone
   takes ~20 ms on the two-host stack (13 ms of it on the wire), so
   bulk_rpc gets a wider limit than the small-message workloads. *)
let p99_limit_us = function
  | Null_rpc | Switched_mix -> 10_000.
  | Bulk_rpc -> 100_000.

(* Arrivals per capacity probe, and the search bracket [lo, hi].  The
   probe length sets the figure's spread between seeds: a p99 from 3000
   bulk or 4000 switched arrivals moved the capacity ~10% from seed to
   seed, twice as many ~6%. *)
let probe_calls = function
  | Null_rpc -> 4000
  | Bulk_rpc -> 6000
  | Switched_mix -> 8000

let bracket = function
  | Null_rpc -> (100., 1600.)
  | Bulk_rpc -> (10., 160.)
  | Switched_mix -> (500., 8000.)

let probe wl arrivals ~rate =
  let rig = setup wl in
  let r = start_open ~rate ~window:(window wl) rig arrivals in
  run_until rig.sim (fun () -> r.done_);
  let s = summarise r in
  s.n_failed + s.n_shed + s.n_wrong = 0 && s.p99_us <= p99_limit_us wl

(** Highest open-loop rate (calls per virtual second) whose p99 meets
    {!p99_limit_us} with nothing failed or shed: a geometric bisection
    over fresh worlds, deterministic for the inputs. *)
let capacity wl arrivals =
  let arrivals =
    Array.sub arrivals 0 (min (Array.length arrivals) (probe_calls wl))
  in
  let lo, hi = bracket wl in
  let rec shrink lo k =
    if k = 0 || probe wl arrivals ~rate:lo then lo else shrink (lo /. 2.) (k - 1)
  in
  let lo = shrink lo 4 in
  let lo = ref lo and hi = ref hi in
  for _ = 1 to 8 do
    let mid = sqrt (!lo *. !hi) in
    if probe wl arrivals ~rate:mid then lo := mid else hi := mid
  done;
  !lo

(* --- metrics ----------------------------------------------------------- *)

let fail_frac s =
  float_of_int (s.n_failed + s.n_shed + s.n_wrong)
  /. float_of_int (max 1 s.attempted)

(** Every metric that is deterministic for a seed, as (name, unit,
    value).  Units starting with "v" are simulated time, which repeats
    exactly for a seed. *)
let virtual_metrics s ~capacity =
  [
    ("events_per_call", "events", s.events_per_call);
    ("vlat_p50_us", "vus", s.p50_us);
    ("vlat_p99_us", "vus", s.p99_us);
    ("vlat_p999_us", "vus", s.p999_us);
    ("vgoodput_calls_per_s", "calls/vs", s.goodput);
    ("vthroughput_kbs", "KB/vs", s.payload_kbs);
    ("server_vcpu_us_per_call", "vus", s.server_vcpu_us);
    ("fail_frac", "frac", fail_frac s);
    ("vcapacity_rps", "calls/vs", capacity);
  ]
