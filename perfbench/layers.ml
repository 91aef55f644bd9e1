(* Per-layer metrics for the traced run.

   Two sources, both from outside the library: wall-clock timing of
   calls into each module's public functions in isolation, and the
   modules' own public counters (the Stats registry, Wire.stats,
   Machine accounting) read at the first and last call of a run. *)

open Xkernel

(* Median wall nanoseconds per operation over five timings of
   [ops] operations each. *)
let time_ns ~ops f =
  Refclock.median
    (Array.init 5 (fun _ ->
         let t0 = Refclock.now () in
         f ();
         (Refclock.now () -. t0) *. 1e9 /. float_of_int ops))

let sim_event () =
  let n = 100_000 in
  time_ns ~ops:n (fun () ->
      let sim = Sim.create () in
      for i = 1 to n do
        ignore (Sim.after sim (float_of_int i *. 1e-6) ignore)
      done;
      Sim.run sim)

let fiber_switch () =
  let fibers = 100 and hops = 1000 in
  time_ns ~ops:(fibers * hops) (fun () ->
      let sim = Sim.create () in
      for _ = 1 to fibers do
        Sim.spawn sim (fun () ->
            for _ = 1 to hops do
              Sim.delay sim 1e-6
            done)
      done;
      Sim.run sim)

let msg_push_pop () =
  let n = 200_000 and base = Msg.fill 1024 'm' and hdr = String.make 16 'h' in
  time_ns ~ops:n (fun () ->
      for _ = 1 to n do
        match Msg.pop (Msg.push base hdr) 16 with
        | Some (h, rest) -> ignore (Sys.opaque_identity (h, rest))
        | None -> assert false
      done)

let msg_split_append () =
  let n = 200_000 and base = Msg.fill 16384 'm' in
  time_ns ~ops:n (fun () ->
      for i = 1 to n do
        let a, b = Msg.split base (1024 * (1 + (i land 15))) in
        ignore (Sys.opaque_identity (Msg.append a b))
      done)

let sprite_codec () =
  let n = 100_000 in
  let h =
    {
      Rpc.Wire_fmt.Sprite.flags = 1;
      clnt_host = Addr.Ip.v 10 0 0 1;
      srvr_host = Addr.Ip.v 10 0 0 2;
      channel = 3;
      srvr_process = 4;
      sequence_num = 5;
      num_frags = 1;
      frag_mask = 1;
      command = 1;
      boot_id = 7;
      data1_sz = 0;
      data2_sz = 0;
      data1_off = 0;
      data2_off = 0;
    }
  in
  time_ns ~ops:n (fun () ->
      for _ = 1 to n do
        ignore
          (Sys.opaque_identity (Rpc.Wire_fmt.Sprite.decode (Rpc.Wire_fmt.Sprite.encode h)))
      done)

(* One transmit of a 100-byte frame to one receiver, including running
   its delivery event. *)
let wire_transmit () =
  let n = 50_000 and frame = Msg.fill 100 'f' in
  time_ns ~ops:n (fun () ->
      let sim = Sim.create () in
      let w = Wire.create sim () in
      let from = Wire.attach w ~recv:ignore in
      ignore (Wire.attach w ~recv:ignore);
      Sim.spawn sim (fun () ->
          for _ = 1 to n do
            Wire.transmit w ~from frame
          done);
      Sim.run sim)

(* A push down a chain of trivial protocols on a zero-cost machine: the
   infrastructure's own price of one layer crossing. *)
let proto_crossing () =
  let depth = 8 and n = 50_000 in
  let sim = Sim.create () in
  let host =
    Host.create sim ~name:"perfbench" ~ip:(Addr.Ip.v 10 9 9 9) ~eth:(Addr.Eth.v 42)
      ~profile:Machine.zero_cost ()
  in
  let session p push =
    Proto.make_session p
      {
        Proto.push;
        pop = ignore;
        s_control = (fun _ -> Control.Unsupported);
        close = ignore;
      }
  in
  let bottom = session (Proto.create ~host ~name:"bottom" ()) ignore in
  let top =
    List.fold_left
      (fun below k ->
        let p = Proto.create ~host ~name:(Printf.sprintf "layer%d" k) () in
        session p (Proto.push below))
      bottom (List.init depth Fun.id)
  in
  let msg = Msg.fill 64 'p' in
  time_ns ~ops:(n * (depth + 1)) (fun () ->
      Sim.spawn sim (fun () ->
          for _ = 1 to n do
            Proto.push top msg
          done);
      Sim.run sim)

let microbenchmarks () =
  [
    ("sim.ns_per_event", "ns", sim_event ());
    ("sim.ns_per_fiber_switch", "ns", fiber_switch ());
    ("msg.ns_push_pop", "ns", msg_push_pop ());
    ("msg.ns_split_append", "ns", msg_split_append ());
    ("wire_fmt.ns_sprite_codec", "ns", sprite_codec ());
    ("wire.ns_per_transmit", "ns", wire_transmit ());
    ("proto.ns_per_crossing", "ns", proto_crossing ());
  ]

(* --- counters of one measured run ------------------------------------ *)

let suffix name =
  match String.rindex_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* Sum of counter [key] over every registered table of layer [layer]
   (tables are named "host/LAYER"). *)
let total snap ~layer ~key =
  List.fold_left
    (fun acc (name, counters) ->
      if suffix name = layer then
        acc + Option.value (List.assoc_opt key counters) ~default:0
      else acc)
    0 snap.Workload.registry

let gauge_max snap ~layer ~key =
  List.fold_left
    (fun acc (name, counters) ->
      if suffix name = layer then
        max acc (Option.value (List.assoc_opt key counters) ~default:0)
      else acc)
    0 snap.Workload.registry

(** Per-layer metrics, as (name, unit, value), of a complete run
    started with [~registry:true]. *)
let of_run (r : Workload.run) (s : Workload.summary) =
  let a = Option.get r.Workload.first and b = Option.get r.Workload.last in
  let calls = float_of_int (max 1 s.Workload.completed) in
  let delta layer key = float_of_int (total b ~layer ~key - total a ~layer ~key) in
  let per_call layer key = delta layer key /. calls in
  let crossings =
    List.map
      (fun l ->
        let name = String.lowercase_ascii l ^ ".crossings_per_call" in
        (name, "crossings", per_call l "crossings"))
      [ "ETH"; "IP"; "VIP"; "FRAGMENT"; "CHANNEL"; "SELECT" ]
  in
  let hits = delta "INC" "hits" and misses = delta "INC" "misses" in
  let wires = r.Workload.rig.Workload.server_wires in
  let server_util =
    float_of_int (b.server_wire_bytes - a.server_wire_bytes)
    *. 8. /. Wire.bandwidth_bps wires.(0)
    /. (s.elapsed *. float_of_int (Array.length wires))
  in
  let us_per_call x y = (y -. x) *. 1e6 /. calls in
  crossings
  @ [
      ("fragment.tx_frags_per_call", "frags", per_call "FRAGMENT" "tx-frag");
      ("fragment.rx_frags_per_call", "frags", per_call "FRAGMENT" "rx-frag");
      ("fragment.cache_drop_per_call", "drops", per_call "FRAGMENT" "cache-drop");
      ( "wire.frames_per_call",
        "frames",
        float_of_int (b.wire_frames - a.wire_frames) /. calls );
      ("wire.bytes_per_call", "bytes", float_of_int (b.wire_bytes - a.wire_bytes) /. calls);
      ("wire.server_util", "frac", server_util);
      ("channel.retransmits_per_call", "frames", per_call "CHANNEL" "retransmit");
      ("channel.dup_req_per_call", "frames", per_call "CHANNEL" "dup-req");
      ( "machine.client_vcpu_us_per_call",
        "vus",
        us_per_call a.client_cpu b.client_cpu );
      ( "machine.server_vcpu_wait_us_per_call",
        "vus",
        us_per_call a.server_wait b.server_wait );
      ( "machine.switch_vcpu_us_per_call",
        "vus",
        us_per_call a.switch_cpu b.switch_cpu );
      ("machine.server_queue_depth_max", "fibers", float_of_int r.Workload.depth_max);
      ("admit.admitted", "count", delta "ADMIT" "admitted");
      ("admit.busy_rejected", "count", delta "ADMIT" "busy-rejected");
      ( "admit.sojourn_max_us",
        "vus",
        float_of_int (gauge_max b ~layer:"ADMIT" ~key:"sojourn-max-us") );
      ("inc.hits", "count", hits);
      ("inc.misses", "count", misses);
      ( "inc.hit_ratio",
        "frac",
        if hits +. misses > 0. then hits /. (hits +. misses) else 0. );
      ("inc.forwarded_per_call", "frames", per_call "INC" "forwarded");
      ("inc.sheds", "count", delta "INC" "sheds");
      ("replica.failovers", "count", delta "REPLICA" "failovers");
      ("replica.probes", "count", delta "REPLICA" "probe-sent");
    ]
