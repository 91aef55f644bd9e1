(* Dynamic shard map: rendezvous assignment, the wire codec, the MAP
   coordinator, the wrong-shard handshake, graceful handoff, and the
   chaos rebalancer — unit-level first, then end-to-end over replicated
   fan-outs with a scripted crash. *)
open Xkernel
module World = Netproto.World
module Stacks = Rpc.Stacks
module Shard_map = Rpc.Shard_map
module Select = Rpc.Select
module Select_replica = Rpc.Select_replica
module Rebalance = Rpc.Rebalance
module S = Rpc.Wire_fmt.Select

(* --- the map itself ------------------------------------------------------ *)

let assignment_deterministic () =
  let a = Shard_map.create ~seed:42 ~shards:16 ~replicas:4 in
  let b = Shard_map.create ~seed:42 ~shards:16 ~replicas:4 in
  Tutil.check_int "same version" (Shard_map.version a) (Shard_map.version b);
  for s = 0 to 15 do
    Tutil.check_int
      (Printf.sprintf "shard %d same owner" s)
      (Shard_map.owner a ~shard:s)
      (Shard_map.owner b ~shard:s);
    Alcotest.(check bool) "owner in range" true
      (Shard_map.owner a ~shard:s >= 0 && Shard_map.owner a ~shard:s < 4)
  done;
  let total =
    List.fold_left
      (fun acc r -> acc + Shard_map.shards_owned a ~replica:r)
      0 [ 0; 1; 2; 3 ]
  in
  Tutil.check_int "every shard owned exactly once" 16 total

let reassign_moves_only_the_dead_replicas_shards () =
  let m = Shard_map.create ~seed:7 ~shards:32 ~replicas:4 in
  let dead = 1 in
  let owned = Shard_map.shards_owned m ~replica:dead in
  Alcotest.(check bool) "seed 7 gives replica 1 some shards" true (owned > 0);
  match Shard_map.reassign m ~dead:[ dead ] with
  | None -> Alcotest.fail "reassign returned None with shards to move"
  | Some m' ->
      Tutil.check_int "version bumped"
        (Shard_map.version m + 1)
        (Shard_map.version m');
      let changed = Shard_map.diff m m' in
      (* Minimal movement: exactly the dead replica's shards moved, and
         every survivor kept its owner. *)
      Tutil.check_int "exactly the dead shards moved" owned
        (List.length changed);
      List.iter
        (fun s ->
          Tutil.check_int "moved shard was the dead replica's" dead
            (Shard_map.owner m ~shard:s);
          Alcotest.(check bool) "new owner is live" true
            (Shard_map.owner m' ~shard:s <> dead))
        changed;
      Tutil.check_int "dead replica drained" 0
        (Shard_map.shards_owned m' ~replica:dead);
      (* Nothing left to do: a second reassign is a no-op. *)
      Alcotest.(check bool) "reassign idempotent" true
        (Shard_map.reassign m' ~dead:[ dead ] = None)

let move_and_versioning () =
  let m = Shard_map.create ~seed:3 ~shards:8 ~replicas:3 in
  let o = Shard_map.owner m ~shard:5 in
  let m' = Shard_map.move m ~shard:5 ~to_:((o + 1) mod 3) in
  Tutil.check_int "moved" ((o + 1) mod 3) (Shard_map.owner m' ~shard:5);
  Tutil.check_int "version bumped" 2 (Shard_map.version m');
  (* A no-op move does not burn a generation. *)
  let same = Shard_map.move m ~shard:5 ~to_:o in
  Tutil.check_int "no-op move keeps the version" 1 (Shard_map.version same);
  Alcotest.(check bool) "newer_than is lexicographic" true
    (Shard_map.newer_than m' ~epoch:(Shard_map.epoch m) ~version:1);
  Alcotest.(check bool) "not newer than itself" false
    (Shard_map.newer_than m' ~epoch:(Shard_map.epoch m') ~version:2)

let codec_roundtrip () =
  let m = Shard_map.create ~seed:99 ~shards:24 ~replicas:5 in
  let m = Shard_map.move m ~shard:3 ~to_:((Shard_map.owner m ~shard:3 + 1) mod 5) in
  (match Shard_map.decode (Shard_map.encode m) with
  | None -> Alcotest.fail "roundtrip decode failed"
  | Some d ->
      Tutil.check_int "epoch" (Shard_map.epoch m) (Shard_map.epoch d);
      Tutil.check_int "version" (Shard_map.version m) (Shard_map.version d);
      for s = 0 to 23 do
        Tutil.check_int "owner"
          (Shard_map.owner m ~shard:s)
          (Shard_map.owner d ~shard:s)
      done);
  (* Malformed inputs are rejected, not trusted. *)
  Alcotest.(check bool) "empty rejected" true (Shard_map.decode "" = None);
  let enc = Shard_map.encode m in
  Alcotest.(check bool) "truncated rejected" true
    (Shard_map.decode (String.sub enc 0 (String.length enc - 1)) = None);
  let bad = Bytes.of_string enc in
  (* Owner byte out of range (>= n_replicas). *)
  Bytes.set bad (String.length enc - 1) '\xff';
  Alcotest.(check bool) "bad owner rejected" true
    (Shard_map.decode (Bytes.to_string bad) = None)

let stamp_codec_roundtrip () =
  let st = { S.shard = 513; epoch = 0xDEADBEE; version = 42 } in
  match S.decode_stamp (S.encode_stamp st) with
  | None -> Alcotest.fail "stamp roundtrip failed"
  | Some d ->
      Tutil.check_int "shard" st.S.shard d.S.shard;
      Tutil.check_int "epoch" st.S.epoch d.S.epoch;
      Tutil.check_int "version" st.S.version d.S.version

(* --- the MAP coordinator -------------------------------------------------- *)

let coordinator_monotonic () =
  let w = World.create () in
  let host = (World.node w 0).World.host in
  let m1 = Shard_map.create ~seed:5 ~shards:8 ~replicas:3 in
  let c = Shard_map.Coordinator.create ~host ~map:m1 () in
  let m2 =
    Shard_map.move m1 ~shard:0 ~to_:((Shard_map.owner m1 ~shard:0 + 1) mod 3)
  in
  Shard_map.Coordinator.install c m2;
  Tutil.check_int "installed v2" 2
    (Shard_map.version (Shard_map.Coordinator.current c));
  Tutil.check_int "one shard moved" 1 (Shard_map.Coordinator.moved c);
  (* Stale generations are refused silently. *)
  Shard_map.Coordinator.install c m1;
  Tutil.check_int "still v2" 2
    (Shard_map.version (Shard_map.Coordinator.current c));
  Tutil.check_int "no phantom movement" 1 (Shard_map.Coordinator.moved c);
  World.run w

(* --- the wrong-shard handshake, end to end ------------------------------- *)

let wrong_shard_refresh_retry () =
  Stats.reset_registry ();
  let fo = World.create_fanout ~clients:1 ~servers:3 () in
  let w = fo.World.fo in
  let map = Shard_map.create ~seed:7 ~shards:6 ~replicas:3 in
  let s = Stacks.lrpc_fanout ~policy:Select_replica.Hash ~shard_map:map fo in
  let r = s.Stacks.fos_replicas.(0) in
  (* Move shard 0 (key 0) and teach the servers the new generation out
     of band; the client deliberately stays on v1 with a refresh hook
     that installs v2 — exactly the stale-client window. *)
  let old_owner = Shard_map.owner map ~shard:0 in
  let m2 = Shard_map.move map ~shard:0 ~to_:((old_owner + 1) mod 3) in
  Array.iter
    (fun sel -> ignore (Select.install_shard_map sel m2))
    s.Stacks.fos_selects;
  Select_replica.set_refresh r (fun () ->
      ignore (Select_replica.install_map r m2));
  let res =
    Tutil.run_in w (fun () ->
        s.Stacks.fos_call 0 ~key:0 ~command:Stacks.cmd_echo
          (Msg.of_string "k"))
  in
  (match res with
  | Ok reply -> Tutil.check_str "echo survived" "k" (Msg.to_string reply)
  | Error e ->
      Alcotest.failf "handshake failed: %s" (Rpc.Rpc_error.to_string e));
  Tutil.check_int "client refreshed to v2" 2 (Select_replica.map_version r);
  Alcotest.(check bool) "stale stamp was bounced" true
    (Tutil.stat (Select_replica.proto r) "wrong-shard-rx" >= 1);
  (* The refresh retry is free: no failover, no health damage. *)
  Tutil.check_int "no failover burned" 0 (Select_replica.failovers r);
  Alcotest.(check bool) "old owner still healthy" true
    (Select_replica.health r old_owner = Select_replica.Healthy)

(* --- graceful handoff ----------------------------------------------------- *)

let handoff_forces_the_straggler () =
  let w = World.create () in
  let host = (World.node w 0).World.host in
  let sim = w.World.sim in
  let map = Shard_map.create ~seed:1 ~shards:4 ~replicas:3 in
  let shard = 0 in
  let old_owner = Shard_map.owner map ~shard in
  let new_owner = (old_owner + 1) mod 3 in
  let hits = Array.make 3 0 in
  let endpoints =
    Array.init 3 (fun i ->
        {
          Select_replica.ep_addr = Addr.Ip.v 10 9 9 (i + 1);
          ep_call =
            (fun ?expires:_ ?shard:_ ~command:_ msg ->
              hits.(i) <- hits.(i) + 1;
              (* The old owner never answers within the attempt; the
                 drain deadline, not the attempt timeout, must cut the
                 call over. *)
              if i = old_owner then Sim.delay sim 2.0;
              Ok msg);
        })
  in
  let t =
    Select_replica.create ~host ~policy:Select_replica.Hash
      ~attempt_timeout:1.0 ~deadline:3.0 ~drain_deadline:0.01 ~shard_map:map
      ~endpoints ()
  in
  let m2 = Shard_map.move map ~shard ~to_:new_owner in
  Select_replica.set_refresh t (fun () ->
      ignore (Select_replica.install_map t m2));
  (* Install the new map while the call is parked on the old owner. *)
  ignore (Sim.after sim 0.05 (fun () -> ignore (Select_replica.install_map t m2)));
  let elapsed = ref 0. in
  let res =
    Tutil.run_in w (fun () ->
        let t0 = Sim.now sim in
        let r = Select_replica.call t ~key:shard ~command:Stacks.cmd_null Msg.empty in
        elapsed := Sim.now sim -. t0;
        r)
  in
  ignore (Tutil.ok_exn "handoff completed the call" res);
  Tutil.check_int "old owner was tried" 1 hits.(old_owner);
  Tutil.check_int "new owner served" 1 hits.(new_owner);
  Tutil.check_int "one forced handoff" 1
    (Tutil.stat (Select_replica.proto t) "handoff-forced");
  Alcotest.(check bool)
    (Printf.sprintf "drain bound, not the attempt timeout (%.3f s)" !elapsed)
    true
    (!elapsed < 0.2)

(* --- chaos crash over the monolithic fan-out ------------------------------ *)

(* Open loop over mrpc_fanout (whose wire cannot carry stamps) with a
   mid-run crash and the crash rebalancer: conservation must hold
   exactly — every arrival completes, fails or is shed, none lost, and
   the run drains (no hung fibers). *)
let mrpc_chaos_run () =
  Stats.reset_registry ();
  let arrivals = 250 and rate = 500. and window = 16 in
  let fo = World.create_fanout ~clients:2 ~servers:3 ~seed:11 () in
  let w = fo.World.fo in
  let sim = w.World.sim in
  let map = Shard_map.create ~seed:11 ~shards:8 ~replicas:3 in
  let s =
    Stacks.mrpc_fanout ~policy:Select_replica.Hash ~shard_map:map
      ~attempt_timeout:0.04 ~deadline:0.3 ~probation:0.02 ~probe_limit:2
      ~probe_timeout:0.03 fo
  in
  Chaos.apply ~wire:w.World.wire ~devices:(World.devices w)
    [
      { Chaos.from_t = 0.3; until_t = 1.2; spec = Chaos.Crash 0 };
      {
        Chaos.from_t = 0.3;
        until_t = 1.2;
        spec = Chaos.Partition { a = [ 0 ]; b = [ 1; 2; 3; 4 ] };
      };
    ];
  let coord = Option.get s.Stacks.fos_coord in
  let replicas = s.Stacks.fos_replicas in
  let rb =
    Rebalance.create ~host:s.Stacks.fos_clients.(0) ~coord
      ~replica_health:(Rebalance.majority_health replicas)
      ~shard_load:(Rebalance.summed_shard_load replicas ~shards:8)
      ~interval:0.025 ~on_skew:false ()
  in
  Rebalance.start rb ~until:0.8;
  let completed = ref 0 and failed = ref 0 and shed = ref 0 in
  let pending = ref 0 in
  Tutil.run_in w (fun () ->
      for k = 0 to arrivals - 1 do
        if !pending >= window then incr shed
        else begin
          incr pending;
          Sim.spawn sim (fun () ->
              (match
                 s.Stacks.fos_call (k mod 2) ~key:k ~command:Stacks.cmd_null
                   Msg.empty
               with
              | Ok _ -> incr completed
              | Error _ -> incr failed);
              decr pending)
        end;
        if k < arrivals - 1 then Sim.delay sim (1. /. rate)
      done);
  (* run_in drained the world: no hung fibers. *)
  let lost = arrivals - !completed - !failed - !shed in
  Json.to_string
    (Json.Obj
       [
         ("completed", Json.Int !completed);
         ("failed", Json.Int !failed);
         ("shed", Json.Int !shed);
         ("lost", Json.Int lost);
         ("moved", Json.Int (Rebalance.moves rb));
         ( "map_version",
           Json.Int
             (Array.fold_left
                (fun a r -> max a (Select_replica.map_version r))
                0 replicas) );
       ])

let mrpc_chaos_conservation () =
  let row = mrpc_chaos_run () in
  let get k =
    match Json.parse row with
    | Ok (Json.Obj kvs) -> (
        match List.assoc k kvs with Json.Int n -> n | _ -> -1)
    | _ -> -1
  in
  Alcotest.(check bool) "some calls completed" true (get "completed" > 0);
  Tutil.check_int "lost_calls is zero" 0 (get "lost");
  Alcotest.(check bool) "the crash moved shards" true (get "moved" > 0);
  Alcotest.(check bool) "clients installed the new map" true
    (get "map_version" > 1)

let mrpc_chaos_deterministic () =
  let a = mrpc_chaos_run () in
  let b = mrpc_chaos_run () in
  Tutil.check_str "identical JSON twice" a b

let experiment_deterministic () =
  let run () =
    Rpc.Experiments.rebalance ~servers:3 ~clients:2 ~shards:8 ~rate:400.
      ~arrivals:240 ~modes:[ "crash-rebalance" ] ()
  in
  let a = Json.to_string (run ()) in
  let b = Json.to_string (run ()) in
  Tutil.check_str "identical JSON twice" a b

let () =
  Alcotest.run "rebalance"
    [
      ( "map",
        [
          Alcotest.test_case "assignment deterministic" `Quick
            assignment_deterministic;
          Alcotest.test_case "reassign moves only the dead shards" `Quick
            reassign_moves_only_the_dead_replicas_shards;
          Alcotest.test_case "move and versioning" `Quick move_and_versioning;
          Alcotest.test_case "codec roundtrip and rejection" `Quick
            codec_roundtrip;
          Alcotest.test_case "stamp codec roundtrip" `Quick
            stamp_codec_roundtrip;
        ] );
      ( "control-plane",
        [
          Alcotest.test_case "coordinator monotonic" `Quick
            coordinator_monotonic;
          Alcotest.test_case "wrong-shard refresh retry" `Quick
            wrong_shard_refresh_retry;
          Alcotest.test_case "handoff forces the straggler" `Quick
            handoff_forces_the_straggler;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "mrpc crash: conservation" `Quick
            mrpc_chaos_conservation;
          Alcotest.test_case "mrpc crash: deterministic" `Quick
            mrpc_chaos_deterministic;
          Alcotest.test_case "experiment deterministic" `Quick
            experiment_deterministic;
        ] );
    ]
