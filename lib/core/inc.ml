open Xkernel
module F = Wire_fmt.Fragment
module Ch = Wire_fmt.Channel
module Sel = Wire_fmt.Select
module Flags = Wire_fmt.Flags

(* In-network computation on the switch: a headerless virtual protocol
   hung off the forwarding IP instance's hook.  It inspects whole
   SELECT-CHANNEL-FRAGMENT datagrams in transit and, without any wire
   format of its own, (a) answers repeated idempotent requests from a
   reply cache — charging the fabric CPU and the client's access link
   but neither the server's wire nor its CPU — and (b) sheds requests
   whose propagated deadline already expired, which the server would
   only drop after paying to receive them.

   Correctness rests on what it refuses to do: only single-fragment
   data frames are examined (anything else forwards untouched), only
   explicitly registered commands are cacheable, replies are synthesized
   under a sequence space disjoint from any real sender's, and a cached
   reply is never served across a shard-map generation it predates. *)

type entry = {
  e_reply : string;  (* CHANNEL payload: SELECT header + body *)
  e_boot_id : int;  (* server boot observed in the stored reply *)
  e_gen : int * int;  (* (epoch, version) stamped on the request *)
  e_stored : float;
}

type t = {
  host : Host.t;
  ip : Netproto.Ip.t;
  ttl : float;
  capacity : int;
  cacheable : (int, unit) Hashtbl.t;
  cache : (string, entry) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for eviction *)
  pending : (int * int * int * int, string * (int * int)) Hashtbl.t;
  server_boot : (int, int) Hashtbl.t;
  (* Newest shard-map generation observed in transit; entries stamped
     with an older one are dead. *)
  mutable gen : int * int;
  (* Synthesized replies use their own sequence space, far above any
     real FRAGMENT sender's (those count up from 1), so they can never
     collide in a client's duplicate-suppression table. *)
  mutable synth_seq : int;
  stats : Stats.t;
  c_hits : Stats.counter;
  c_misses : Stats.counter;
  c_sheds : Stats.counter;
  c_forwarded : Stats.counter;
  c_stored : Stats.counter;
  c_invalidated : Stats.counter;
}

let gen_newer (e1, v1) (e0, v0) = e1 > e0 || (e1 = e0 && v1 > v0)

let flush_stale t =
  let dead =
    Hashtbl.fold
      (fun k e acc ->
        if e.e_gen <> (0, 0) && gen_newer t.gen e.e_gen then k :: acc else acc)
      t.cache []
  in
  List.iter
    (fun k ->
      Hashtbl.remove t.cache k;
      Stats.tick t.c_invalidated)
    dead

let observe_gen t g =
  if gen_newer g t.gen then begin
    t.gen <- g;
    flush_stale t
  end

(* A server reboot invalidates its at-most-once state; replies recorded
   under the old boot must die with it. *)
let observe_boot t ~server ~boot_id =
  match Hashtbl.find_opt t.server_boot server with
  | Some b when b = boot_id -> ()
  | prev ->
      Hashtbl.replace t.server_boot server boot_id;
      if prev <> None then begin
        let dead =
          Hashtbl.fold
            (fun k e acc -> if e.e_boot_id <> 0 then k :: acc else acc)
            t.cache []
        in
        List.iter
          (fun k ->
            Hashtbl.remove t.cache k;
            Stats.tick t.c_invalidated)
          dead
      end

let key ~client ~server req =
  Printf.sprintf "%d|%d|%s" (Addr.Ip.to_int client) (Addr.Ip.to_int server) req

let store t k e =
  if not (Hashtbl.mem t.cache k) then begin
    Queue.push k t.order;
    while Hashtbl.length t.cache >= t.capacity && not (Queue.is_empty t.order) do
      let victim = Queue.pop t.order in
      Hashtbl.remove t.cache victim
    done
  end;
  Hashtbl.replace t.cache k e;
  Stats.tick t.c_stored

(* Answer from the cache on the server's behalf: a CHANNEL reply under a
   fresh FRAGMENT header whose [clnt_host] (the sender field) is the
   server, so the client's FRAGMENT session for that peer accepts it. *)
let synthesize t ~client ~server ~ch (e : entry) =
  let mach = t.host.Host.mach in
  Machine.charge mach
    [ Machine.Header Ch.bytes; Machine.Header F.bytes; Machine.Process_switch ];
  let reply_hdr =
    {
      Ch.flags = Flags.reply;
      channel = ch.Ch.channel;
      protocol_num = ch.Ch.protocol_num;
      sequence_num = ch.Ch.sequence_num;
      error = 0;
      boot_id = e.e_boot_id;
      deadline_us = -1;
    }
  in
  let chan_payload = Ch.encode reply_hdr ^ e.e_reply in
  let seq = t.synth_seq in
  t.synth_seq <- t.synth_seq + 1;
  let frag_hdr =
    {
      F.typ = F.typ_data;
      clnt_host = server;
      srvr_host = client;
      protocol_num = 93;
      sequence_num = seq;
      num_frags = 1;
      frag_mask = 1;
      len = String.length chan_payload;
    }
  in
  let frame = Msg.push (Msg.of_string chan_payload) (F.encode frag_hdr) in
  Trace.debugf (Host.sim t.host) ~host:t.host.Host.name
    "INC hit: reply %d bytes for %s from cache" (String.length e.e_reply)
    (Addr.Ip.to_string client);
  Sim.spawn (Host.sim t.host) (fun () ->
      Netproto.Ip.inject t.ip ~src:server ~dst:client ~proto_num:92 frame)

let on_request t ~client ~server ~ch body =
  if ch.Ch.deadline_us = 0 then begin
    (* Already expired when stamped: the server would pay an interrupt
       and a header parse only to drop it.  Shed here instead. *)
    Stats.tick t.c_sheds;
    Trace.debugf (Host.sim t.host) ~host:t.host.Host.name
      "INC shed: expired deadline from %s" (Addr.Ip.to_string client);
    true
  end
  else
    match Sel.decode body with
    | None ->
        Stats.tick t.c_forwarded;
        false
    | Some sel ->
        let gen =
          if sel.Sel.typ = Sel.typ_request_sharded then
            match
              Sel.decode_stamp
                (String.sub body Sel.bytes (String.length body - Sel.bytes))
            with
            | Some s ->
                observe_gen t (s.Sel.epoch, s.Sel.version);
                (s.Sel.epoch, s.Sel.version)
            | None -> (0, 0)
          else (0, 0)
        in
        let request =
          sel.Sel.typ = Sel.typ_request
          || sel.Sel.typ = Sel.typ_request_sharded
        in
        if not (request && Hashtbl.mem t.cacheable sel.Sel.command) then begin
          Stats.tick t.c_forwarded;
          false
        end
        else begin
          let k = key ~client ~server body in
          let fresh e =
            Sim.now (Host.sim t.host) -. e.e_stored <= t.ttl
            && not (gen_newer t.gen e.e_gen && e.e_gen <> (0, 0))
          in
          match Hashtbl.find_opt t.cache k with
          | Some e when fresh e ->
              Stats.tick t.c_hits;
              synthesize t ~client ~server ~ch e;
              true
          | found ->
              if found <> None then Hashtbl.remove t.cache k;
              Stats.tick t.c_misses;
              Stats.tick t.c_forwarded;
              if Hashtbl.length t.pending > 4 * t.capacity then
                Hashtbl.reset t.pending;
              Hashtbl.replace t.pending
                ( Addr.Ip.to_int client,
                  Addr.Ip.to_int server,
                  ch.Ch.channel,
                  ch.Ch.sequence_num )
                (k, gen);
              false
        end

let on_reply t ~client ~server ~ch body =
  observe_boot t ~server:(Addr.Ip.to_int server) ~boot_id:ch.Ch.boot_id;
  let pkey =
    ( Addr.Ip.to_int client,
      Addr.Ip.to_int server,
      ch.Ch.channel,
      ch.Ch.sequence_num )
  in
  (match Sel.decode body with
  | Some sel
    when sel.Sel.typ = Sel.typ_reply && sel.Sel.status = Sel.status_wrong_shard
    -> (
      (* The owner moved under a routed call: everything cached under
         the older map generation is suspect. *)
      Hashtbl.remove t.pending pkey;
      match
        Sel.decode_wrong_shard
          (String.sub body Sel.bytes (String.length body - Sel.bytes))
      with
      | Some v -> observe_gen t (fst t.gen, max v (snd t.gen + 1))
      | None -> observe_gen t (fst t.gen, snd t.gen + 1))
  | Some sel
    when sel.Sel.typ = Sel.typ_reply
         && sel.Sel.status = Sel.status_ok
         && ch.Ch.error = 0 -> (
      match Hashtbl.find_opt t.pending pkey with
      | Some (k, gen) ->
          Hashtbl.remove t.pending pkey;
          if not (gen_newer t.gen gen && gen <> (0, 0)) then
            store t k
              {
                e_reply = body;
                e_boot_id = ch.Ch.boot_id;
                e_gen = gen;
                e_stored = Sim.now (Host.sim t.host);
              }
      | None -> ())
  | _ -> Hashtbl.remove t.pending pkey);
  (* Replies always travel on to the client. *)
  false

let hook t ~src:_ ~dst:_ ~proto_num (msg : Msg.t) =
  if proto_num <> 92 then false
  else
    let s = Msg.to_string msg in
    match F.decode s with
    | None -> false
    | Some fh ->
        if fh.F.typ <> F.typ_data || fh.F.num_frags <> 1 || fh.F.protocol_num <> 93
        then false
        else begin
          Machine.charge t.host.Host.mach
            [ Machine.Virtual_op; Machine.Header F.bytes; Machine.Header Ch.bytes ];
          let rest = String.sub s F.bytes (String.length s - F.bytes) in
          match Ch.decode_full rest with
          | None -> false
          | Some ch ->
              let skip =
                Ch.bytes
                + if ch.Ch.flags land Flags.deadline <> 0 then Ch.ext_bytes else 0
              in
              let body = String.sub rest skip (String.length rest - skip) in
              if ch.Ch.flags land Flags.request <> 0 then
                (* In a request frame FRAGMENT's sender field is the
                   client; in a reply it is the server. *)
                on_request t ~client:fh.F.clnt_host ~server:fh.F.srvr_host ~ch
                  body
              else if ch.Ch.flags land Flags.reply <> 0 then
                on_reply t ~client:fh.F.srvr_host ~server:fh.F.clnt_host ~ch
                  body
              else false
        end

let install ~host ~ip ?(cacheable = []) ?(ttl = 2.0) ?(capacity = 1024) () =
  let stats = Stats.create ~name:(host.Host.name ^ "/INC") () in
  let t =
    {
      host;
      ip;
      ttl;
      capacity = max 1 capacity;
      cacheable = Hashtbl.create 8;
      cache = Hashtbl.create 64;
      order = Queue.create ();
      pending = Hashtbl.create 64;
      server_boot = Hashtbl.create 8;
      gen = (0, 0);
      synth_seq = 0x40000000;
      stats;
      c_hits = Stats.counter stats "hits";
      c_misses = Stats.counter stats "misses";
      c_sheds = Stats.counter stats "sheds";
      c_forwarded = Stats.counter stats "forwarded";
      c_stored = Stats.counter stats "stored";
      c_invalidated = Stats.counter stats "invalidated";
    }
  in
  List.iter (fun c -> Hashtbl.replace t.cacheable c ()) cacheable;
  Netproto.Ip.set_forward_hook ip
    (Some (fun ~src ~dst ~proto_num msg -> hook t ~src ~dst ~proto_num msg));
  t

let stats t = t.stats
let hits t = Stats.value t.c_hits
let misses t = Stats.value t.c_misses
let sheds t = Stats.value t.c_sheds
let forwarded t = Stats.value t.c_forwarded
let stored t = Stats.value t.c_stored
let invalidated t = Stats.value t.c_invalidated
let cache_size t = Hashtbl.length t.cache
let map_generation t = t.gen
