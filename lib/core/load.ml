open Xkernel
module World = Netproto.World

type arrival = Uniform | Poisson

type result = {
  r_config : string;
  r_mode : string;
  offered_rps : float;
  achieved_rps : float;
  arrivals : int;
  completed : int;
  failed : int;
  shed : int;
  elapsed_s : float;
  wire_util : float;
  queue_depth_max : int;
  pending_max : int;
  hist : Histogram.t;
  per_client : Histogram.t array;
}

(* Latencies are recorded in microseconds; 100 s of range is far past
   any retry-exhausted call. *)
let new_hist () = Histogram.create ~max_value:100_000_000 ()

let us_of seconds = int_of_float ((seconds *. 1e6) +. 0.5)

let sample_interval = 0.5e-3

(* Sample the server CPU's run-queue depth into [peak] every
   [sample_interval] until [until ()] holds.  The samples charge
   nothing, so the workload's timing is unaffected. *)
let spawn_queue_sampler (w : World.t) mach peak ~until =
  World.spawn w (fun () ->
      while not (until ()) do
        let d = Machine.queue_depth mach in
        if d > !peak then peak := d;
        Sim.delay w.World.sim sample_interval
      done)

let payload_of size = if size = 0 then Msg.empty else Msg.fill size 'l'

let merge hists =
  let hist = new_hist () in
  Array.iter (fun h -> Histogram.merge_into ~src:h ~dst:hist) hists;
  hist

let finish (f : World.fanout) (s : Stacks.stack) ~mode ~offered ~arrivals
    ~completed ~failed ~shed ~t0 ~t_end ~bytes0 ~queue_peak ~pending_max
    ~hists =
  let hist = merge hists in
  let elapsed = t_end -. t0 in
  let wire = f.World.fo.World.wire in
  let wire_bits = float_of_int (((Wire.stats wire).Wire.bytes - bytes0) * 8) in
  let achieved_rps =
    if elapsed > 0. then float_of_int completed /. elapsed else 0.
  in
  let wire_util =
    if elapsed > 0. then wire_bits /. Wire.bandwidth_bps wire /. elapsed
    else 0.
  in
  let st = Stats.create ~name:("load/" ^ s.Stacks.fos_name) () in
  Stats.set st "queue-depth-max" queue_peak;
  Stats.set st "pending-max" pending_max;
  Stats.set st "shed" shed;
  Stats.set st "completed" completed;
  Stats.set st "wire-util-pct" (int_of_float (wire_util *. 100. +. 0.5));
  {
    r_config = s.Stacks.fos_name;
    r_mode = mode;
    offered_rps = offered;
    achieved_rps;
    arrivals;
    completed;
    failed;
    shed;
    elapsed_s = elapsed;
    wire_util;
    queue_depth_max = queue_peak;
    pending_max;
    hist;
    per_client = hists;
  }

let run_closed ?(fibers = 8) ?(calls = 25) ?(warmup = 2) ?(think = 0.)
    ?(size = 0) (f : World.fanout) (s : Stacks.stack) =
  if fibers < 1 then invalid_arg "Load.run_closed: fibers < 1";
  let w = f.World.fo in
  let sim = w.World.sim in
  let m = Array.length f.World.fo_clients in
  let hists = Array.init m (fun _ -> new_hist ()) in
  let completed = ref 0 and failed = ref 0 in
  let t0 = ref 0. and t_end = ref 0. and bytes0 = ref 0 in
  let queue_peak = ref 0 in
  let payload = payload_of size in
  let gate = Sim.Ivar.create sim in
  let warm_left = ref fibers and running = ref fibers in
  for k = 0 to fibers - 1 do
    let i = k mod m in
    World.spawn w (fun () ->
        for _ = 1 to warmup do
          ignore (s.Stacks.fos_call i ~command:Stacks.cmd_null Msg.empty)
        done;
        decr warm_left;
        if !warm_left = 0 then begin
          (* last fiber to warm up opens the measured phase for all *)
          t0 := Sim.now sim;
          t_end := !t0;
          bytes0 := (Wire.stats w.World.wire).Wire.bytes;
          spawn_queue_sampler w s.Stacks.fos_servers.(0).Host.mach queue_peak
            ~until:(fun () -> !running = 0);
          Sim.Ivar.fill gate ()
        end;
        Sim.Ivar.read gate;
        for _ = 1 to calls do
          let t = Sim.now sim in
          (match s.Stacks.fos_call i ~command:Stacks.cmd_null payload with
          | Ok _ -> incr completed
          | Error _ -> incr failed);
          let now = Sim.now sim in
          Histogram.record hists.(i) (us_of (now -. t));
          if now > !t_end then t_end := now;
          if think > 0. then Sim.delay sim think
        done;
        decr running)
  done;
  World.run w;
  let r =
    finish f s ~mode:"closed" ~offered:0. ~arrivals:(fibers * calls)
      ~completed:!completed ~failed:!failed ~shed:0 ~t0:!t0 ~t_end:!t_end
      ~bytes0:!bytes0 ~queue_peak:!queue_peak ~pending_max:fibers ~hists
  in
  (* Closed loop has no independent offered rate: it offers exactly
     what it achieves. *)
  { r with offered_rps = r.achieved_rps }

type phase = {
  mutable ph_ok : int;
  ph_hist : Histogram.t;
  mutable ph_shed : int;
}

type open_run = {
  o_completed : int;
  o_failed : int;
  o_shed : int;
  o_pending_max : int;
  o_t0 : float;
  o_t_end : float;
  o_hist : Histogram.t;
  o_per_client : Histogram.t array;
  o_phases : phase array;
}

let open_loop ~clients ~warm ?(start_at = 0.)
    ?(on_start = fun ~drained:_ -> ()) ?(phases = []) ~arrival ~rate
    ~arrivals ~window ~call (w : World.t) =
  if rate <= 0. then invalid_arg "Load.open_loop: rate <= 0";
  if window < 1 then invalid_arg "Load.open_loop: window < 1";
  let sim = w.World.sim in
  let hists = Array.init clients (fun _ -> new_hist ()) in
  let ph =
    Array.init
      (List.length phases + 1)
      (fun _ -> { ph_ok = 0; ph_hist = new_hist (); ph_shed = 0 })
  in
  (* The phase of instant [t]: how many boundaries lie at or before it. *)
  let phase_at t =
    ph.(List.fold_left (fun p b -> if t >= b then p + 1 else p) 0 phases)
  in
  let completed = ref 0 and failed = ref 0 and shed = ref 0 in
  let pending = ref 0 and pending_max = ref 0 in
  let t0 = ref 0. and t_end = ref 0. in
  let dispatched_all = ref false in
  let drained () = !dispatched_all && !pending = 0 in
  let one_call client k =
    let t = Sim.now sim in
    let r = call ~client k in
    let now = Sim.now sim in
    let us = us_of (now -. t) in
    (match r with
    | Ok _ ->
        incr completed;
        let p = phase_at now in
        p.ph_ok <- p.ph_ok + 1;
        Histogram.record p.ph_hist us
    | Error _ -> incr failed);
    Histogram.record hists.(client) us;
    if now > !t_end then t_end := now;
    decr pending
  in
  let interarrival =
    match arrival with
    | Uniform -> fun () -> 1. /. rate
    | Poisson ->
        let rng = Sim.rng sim in
        fun () -> -.log (1. -. Random.State.float rng 1.) /. rate
  in
  let dispatcher () =
    let now = Sim.now sim in
    if start_at > now then Sim.delay sim (start_at -. now);
    t0 := Sim.now sim;
    t_end := !t0;
    on_start ~drained;
    for k = 0 to arrivals - 1 do
      (* The arrival happens whether or not we can serve it: a full
         window sheds the call instead of queueing it unboundedly. *)
      if !pending >= window then begin
        incr shed;
        let p = phase_at (Sim.now sim) in
        p.ph_shed <- p.ph_shed + 1
      end
      else begin
        incr pending;
        if !pending > !pending_max then pending_max := !pending;
        let client = k mod clients in
        Sim.spawn sim (fun () -> one_call client k)
      end;
      if k < arrivals - 1 then Sim.delay sim (interarrival ())
    done;
    dispatched_all := true
  in
  (* Warm every client host (ARP, session caches, RTT estimators)
     before the arrival clock starts; the last one to finish starts
     the dispatcher. *)
  let warm_left = ref clients in
  for i = 0 to clients - 1 do
    World.spawn w (fun () ->
        warm i;
        decr warm_left;
        if !warm_left = 0 then Sim.spawn sim dispatcher)
  done;
  World.run w;
  assert !dispatched_all;
  {
    o_completed = !completed;
    o_failed = !failed;
    o_shed = !shed;
    o_pending_max = !pending_max;
    o_t0 = !t0;
    o_t_end = !t_end;
    o_hist = merge hists;
    o_per_client = hists;
    o_phases = ph;
  }

let run_open ?(arrival = Poisson) ?(arrivals = 200) ?(window = 32)
    ?(warmup = 1) ?(size = 0) ~rate (f : World.fanout) (s : Stacks.stack) =
  let w = f.World.fo in
  let payload = payload_of size in
  let bytes0 = ref 0 and queue_peak = ref 0 in
  let o =
    open_loop ~clients:(Array.length f.World.fo_clients)
      ~warm:(fun i ->
        for _ = 1 to max 1 warmup do
          ignore (s.Stacks.fos_call i ~command:Stacks.cmd_null Msg.empty)
        done)
      ~on_start:(fun ~drained ->
        bytes0 := (Wire.stats w.World.wire).Wire.bytes;
        spawn_queue_sampler w s.Stacks.fos_servers.(0).Host.mach queue_peak
          ~until:drained)
      ~arrival ~rate ~arrivals ~window
      ~call:(fun ~client _ ->
        s.Stacks.fos_call client ~command:Stacks.cmd_null payload)
      w
  in
  let mode =
    match arrival with
    | Uniform -> "open-uniform"
    | Poisson -> "open-poisson"
  in
  finish f s ~mode ~offered:rate ~arrivals ~completed:o.o_completed
    ~failed:o.o_failed ~shed:o.o_shed ~t0:o.o_t0 ~t_end:o.o_t_end
    ~bytes0:!bytes0 ~queue_peak:!queue_peak ~pending_max:o.o_pending_max
    ~hists:o.o_per_client

let to_json r =
  Json.Obj
    [
      ("config", Json.Str r.r_config);
      ("mode", Json.Str r.r_mode);
      ("offered_rps", Json.Float r.offered_rps);
      ("achieved_rps", Json.Float r.achieved_rps);
      ("arrivals", Json.Int r.arrivals);
      ("completed", Json.Int r.completed);
      ("failed", Json.Int r.failed);
      ("shed", Json.Int r.shed);
      ("elapsed_ms", Json.Float (r.elapsed_s *. 1e3));
      ("wire_util", Json.Float r.wire_util);
      ("queue_depth_max", Json.Int r.queue_depth_max);
      ("pending_max", Json.Int r.pending_max);
      ("latency_us", Histogram.to_json r.hist);
    ]
