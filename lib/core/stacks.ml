open Xkernel
module World = Netproto.World

type endpoints = {
  config_name : string;
  call : command:int -> Msg.t -> (Msg.t, Rpc_error.t) result;
  client_host : Host.t;
  server_host : Host.t;
  tops : Proto.t list;
}

let cmd_null = 1
let cmd_echo = 2

let standard_handlers register =
  register ~command:cmd_null (fun _req -> Ok Msg.empty);
  register ~command:cmd_echo (fun req -> Ok req)

type mono_lower = L_eth | L_ip | L_vip

let mrpc (w : World.t) ~lower =
  let c = World.node w 0 and s = World.node w 1 in
  let proto_num = 91 in
  let lower_name, lower_of =
    match lower with
    | L_eth -> ("ETH", fun (n : World.node) -> Netproto.Eth.proto n.eth)
    | L_ip -> ("IP", fun (n : World.node) -> Netproto.Ip.proto n.ip)
    | L_vip -> ("VIP", fun (n : World.node) -> Netproto.Vip.proto n.vip)
  in
  let m_c = Sprite_mono.create ~host:c.host ~lower:(lower_of c) ~proto_num () in
  let m_s = Sprite_mono.create ~host:s.host ~lower:(lower_of s) ~proto_num () in
  standard_handlers (Sprite_mono.register m_s);
  let eth_type = Addr.eth_type_of_ip_proto proto_num in
  (match lower with
  | L_eth -> Sprite_mono.serve m_s ~enable:[ Part.Eth_type eth_type ] ()
  | L_ip | L_vip -> Sprite_mono.serve m_s ());
  let client = ref None in
  let connect () =
    match !client with
    | Some cl -> cl
    | None ->
        (* Over raw ethernet, RPC itself must name the peer with an
           ethernet address; resolve it once, up front, with ARP. *)
        let cl =
          match lower with
          | L_eth ->
              let peer_eth =
                match Netproto.Arp.resolve c.arp s.host.Host.ip with
                | Some e -> e
                | None -> failwith "mrpc-eth: cannot resolve server"
              in
              Sprite_mono.connect m_c ~server:s.host.Host.ip
                ~remote:[ Part.Eth peer_eth; Part.Eth_type eth_type ]
                ()
          | L_ip | L_vip -> Sprite_mono.connect m_c ~server:s.host.Host.ip ()
        in
        client := Some cl;
        cl
  in
  {
    config_name = "M.RPC-" ^ lower_name;
    call = (fun ~command msg -> Sprite_mono.call (connect ()) ~command msg);
    client_host = c.host;
    server_host = s.host;
    tops = [ Sprite_mono.proto m_c ];
  }

(* --- fan-in configurations: many client hosts, one server ------------- *)

type fan = {
  fan_name : string;
  fan_call :
    int -> command:int -> Msg.t -> (Msg.t, Rpc_error.t) result;
  fan_clients : Host.t array;
  fan_server : Host.t;
}

let mrpc_fanin ?(lower = L_vip) ?n_channels (f : World.fanin) =
  let proto_num = 91 in
  let lower_name, lower_of =
    match lower with
    | L_eth -> ("ETH", fun (n : World.node) -> Netproto.Eth.proto n.eth)
    | L_ip -> ("IP", fun (n : World.node) -> Netproto.Ip.proto n.ip)
    | L_vip -> ("VIP", fun (n : World.node) -> Netproto.Vip.proto n.vip)
  in
  let s = f.World.server in
  let m_s =
    Sprite_mono.create ~host:s.World.host ~lower:(lower_of s) ~proto_num
      ?n_channels ()
  in
  standard_handlers (Sprite_mono.register m_s);
  let eth_type = Addr.eth_type_of_ip_proto proto_num in
  (match lower with
  | L_eth -> Sprite_mono.serve m_s ~enable:[ Part.Eth_type eth_type ] ()
  | L_ip | L_vip -> Sprite_mono.serve m_s ());
  let server_ip = s.World.host.Host.ip in
  let mk_client (n : World.node) =
    let m_c =
      Sprite_mono.create ~host:n.World.host ~lower:(lower_of n) ~proto_num
        ?n_channels ()
    in
    let client = ref None in
    fun ~command msg ->
      let cl =
        match !client with
        | Some cl -> cl
        | None ->
            let cl =
              match lower with
              | L_eth ->
                  let peer_eth =
                    match Netproto.Arp.resolve n.World.arp server_ip with
                    | Some e -> e
                    | None -> failwith "mrpc_fanin-eth: cannot resolve server"
                  in
                  Sprite_mono.connect m_c ~server:server_ip
                    ~remote:[ Part.Eth peer_eth; Part.Eth_type eth_type ]
                    ()
              | L_ip | L_vip -> Sprite_mono.connect m_c ~server:server_ip ()
            in
            client := Some cl;
            cl
      in
      Sprite_mono.call cl ~command msg
  in
  let calls = Array.map mk_client f.World.clients in
  {
    fan_name = "M.RPC-" ^ lower_name;
    fan_call = (fun i -> calls.(i));
    fan_clients =
      Array.map (fun (n : World.node) -> n.World.host) f.World.clients;
    fan_server = s.World.host;
  }

(* SELECT-CHANNEL-FRAGMENT-VIP on one node (fan-in variant below). *)
let lrpc_node ?adaptive ?rto_load_floor ?n_channels (n : World.node) =
  let frag =
    Fragment.create ~host:n.host ~lower:(Netproto.Vip.proto n.vip) ()
  in
  let chan =
    Channel.create ~host:n.host ~lower:(Fragment.proto frag) ?adaptive
      ?rto_load_floor ?n_channels ()
  in
  let sel = Select.create ~host:n.host ~channel:chan () in
  (frag, chan, sel)

let lrpc ?adaptive ?rto_load_floor ?n_channels (w : World.t) =
  let c = World.node w 0 and s = World.node w 1 in
  let _, _, sel_c = lrpc_node ?adaptive ?rto_load_floor ?n_channels c in
  let _, _, sel_s = lrpc_node ?adaptive ?rto_load_floor ?n_channels s in
  standard_handlers (Select.register sel_s);
  Select.serve sel_s;
  let client = ref None in
  let connect () =
    match !client with
    | Some cl -> cl
    | None ->
        let cl = Select.connect sel_c ~server:s.host.Host.ip in
        client := Some cl;
        cl
  in
  {
    config_name = "L.RPC-VIP";
    call = (fun ~command msg -> Select.call (connect ()) ~command msg);
    client_host = c.host;
    server_host = s.host;
    tops = [ Select.proto sel_c ];
  }

let lrpc_fanin ?adaptive ?rto_load_floor ?n_channels (f : World.fanin) =
  let _, _, sel_s =
    lrpc_node ?adaptive ?rto_load_floor ?n_channels f.World.server
  in
  standard_handlers (Select.register sel_s);
  Select.serve sel_s;
  let server_ip = f.World.server.World.host.Host.ip in
  let mk_client (n : World.node) =
    let _, _, sel_c = lrpc_node ?adaptive ?rto_load_floor ?n_channels n in
    let client = ref None in
    fun ~command msg ->
      let cl =
        match !client with
        | Some cl -> cl
        | None ->
            let cl = Select.connect sel_c ~server:server_ip in
            client := Some cl;
            cl
      in
      Select.call cl ~command msg
  in
  let calls = Array.map mk_client f.World.clients in
  {
    fan_name = "L.RPC-VIP";
    fan_call = (fun i -> calls.(i));
    fan_clients =
      Array.map (fun (n : World.node) -> n.World.host) f.World.clients;
    fan_server = f.World.server.World.host;
  }

type fanout_stack = {
  fos_name : string;
  fos_call :
    int -> ?key:int -> command:int -> Msg.t -> (Msg.t, Rpc_error.t) result;
  fos_clients : Host.t array;
  fos_servers : Host.t array;
  fos_replicas : Select_replica.t array;
  fos_selects : Select.t array;
  fos_admits : Admit.t array;
  fos_coord : Shard_map.Coordinator.t option;
}

(* Sharded control plane for a fan-out stack: the coordinator lives on
   the first client host (it must survive any server crash), every
   shard-aware protocol gets the initial map installed directly (no
   startup race) and subscribes for subsequent generations, and each
   client's wrong-shard refresh hook pulls the coordinator's current
   map — the client-initiated half of the MAP protocol. *)
let wire_shards ~host ?map_delay ?map_jitter ~replicas ~selects = function
  | None -> None
  | Some m ->
      let coord =
        Shard_map.Coordinator.create ~host ?publish_delay:map_delay
          ?jitter:map_jitter ~map:m ()
      in
      Array.iteri
        (fun i sel ->
          Select.enable_sharding sel ~self:i;
          ignore (Select.install_shard_map sel m);
          Shard_map.Coordinator.subscribe coord (Select.proto sel))
        selects;
      Array.iter
        (fun r ->
          ignore (Select_replica.install_map r m);
          Select_replica.set_refresh r (fun () ->
              ignore
                (Select_replica.install_map r
                   (Shard_map.Coordinator.current coord)));
          Shard_map.Coordinator.subscribe coord (Select_replica.proto r))
        replicas;
      Some coord

let lrpc_fanout ?adaptive ?rto_load_floor ?n_channels ?policy ?attempt_timeout
    ?deadline ?max_failovers ?probation ?probe_limit ?admit
    ?propagate_deadline ?retry_budget ?hedge ?probe_timeout
    ?dead_retry_interval ?drain_deadline ?shard_map ?map_delay ?map_jitter
    (f : World.fanout) =
  let selects =
    Array.map
      (fun (n : World.node) ->
        let _, _, sel_s = lrpc_node ?adaptive ?rto_load_floor ?n_channels n in
        standard_handlers (Select.register sel_s);
        sel_s)
      f.World.servers
  in
  let admits =
    match admit with
    | None ->
        Array.iter Select.serve selects;
        [||]
    | Some config ->
        (* Slot the admission layer between CHANNEL and SELECT on every
           server: requests surface in ADMIT's queue, survivors are
           forwarded into the SELECT server. *)
        Array.map2
          (fun (n : World.node) sel_s ->
            let adm =
              Admit.create ~host:n.World.host ~upper:(Select.proto sel_s)
                ~config ()
            in
            Select.serve_behind sel_s ~upper:(Admit.proto adm);
            adm)
          f.World.servers selects
  in
  let server_ips =
    Array.map (fun (n : World.node) -> n.World.host.Host.ip) f.World.servers
  in
  let replicas =
    Array.map
      (fun (n : World.node) ->
        let _, _, sel_c = lrpc_node ?adaptive ?rto_load_floor ?n_channels n in
        Select_replica.of_select ~host:n.World.host ~select:sel_c
          ~servers:server_ips ?policy ?attempt_timeout ?deadline ?max_failovers
          ?probation ?probe_limit ?propagate_deadline ?retry_budget ?hedge
          ?probe_timeout ?dead_retry_interval ?drain_deadline ())
      f.World.fo_clients
  in
  let coord =
    wire_shards ~host:f.World.fo_clients.(0).World.host ?map_delay ?map_jitter
      ~replicas ~selects shard_map
  in
  {
    fos_name = "L.RPC-VIP-REPLICA";
    fos_call =
      (fun i ?key ~command msg ->
        Select_replica.call replicas.(i) ?key ~command msg);
    fos_clients =
      Array.map (fun (n : World.node) -> n.World.host) f.World.fo_clients;
    fos_servers =
      Array.map (fun (n : World.node) -> n.World.host) f.World.servers;
    fos_replicas = replicas;
    fos_selects = selects;
    fos_admits = admits;
    fos_coord = coord;
  }

let mrpc_fanout ?(lower = L_vip) ?n_channels ?policy ?attempt_timeout ?deadline
    ?max_failovers ?probation ?probe_limit ?probe_timeout ?dead_retry_interval
    ?drain_deadline ?shard_map ?map_delay ?map_jitter (f : World.fanout) =
  let proto_num = 91 in
  let lower_name, lower_of =
    match lower with
    | L_eth -> ("ETH", fun (n : World.node) -> Netproto.Eth.proto n.eth)
    | L_ip -> ("IP", fun (n : World.node) -> Netproto.Ip.proto n.ip)
    | L_vip -> ("VIP", fun (n : World.node) -> Netproto.Vip.proto n.vip)
  in
  let eth_type = Addr.eth_type_of_ip_proto proto_num in
  Array.iter
    (fun (s : World.node) ->
      let m_s =
        Sprite_mono.create ~host:s.World.host ~lower:(lower_of s) ~proto_num
          ?n_channels ()
      in
      standard_handlers (Sprite_mono.register m_s);
      match lower with
      | L_eth -> Sprite_mono.serve m_s ~enable:[ Part.Eth_type eth_type ] ()
      | L_ip | L_vip -> Sprite_mono.serve m_s ())
    f.World.servers;
  let mk_client (n : World.node) =
    let m_c =
      Sprite_mono.create ~host:n.World.host ~lower:(lower_of n) ~proto_num
        ?n_channels ()
    in
    let endpoints =
      Array.map
        (fun (s : World.node) ->
          let server_ip = s.World.host.Host.ip in
          let client = ref None in
          {
            Select_replica.ep_addr = server_ip;
            ep_call =
              (* The monolithic stack cannot carry a shard stamp; the
                 routing map still steers which replica is called. *)
              (fun ?expires:_ ?shard:_ ~command msg ->
                let cl =
                  match !client with
                  | Some cl -> cl
                  | None ->
                      let cl =
                        match lower with
                        | L_eth ->
                            let peer_eth =
                              match
                                Netproto.Arp.resolve n.World.arp server_ip
                              with
                              | Some e -> e
                              | None ->
                                  failwith
                                    "mrpc_fanout-eth: cannot resolve server"
                            in
                            Sprite_mono.connect m_c ~server:server_ip
                              ~remote:
                                [ Part.Eth peer_eth; Part.Eth_type eth_type ]
                              ()
                        | L_ip | L_vip ->
                            Sprite_mono.connect m_c ~server:server_ip ()
                      in
                      client := Some cl;
                      cl
                in
                Sprite_mono.call cl ~command msg);
          })
        f.World.servers
    in
    Select_replica.create ~host:n.World.host ?policy ?attempt_timeout ?deadline
      ?max_failovers ?probation ?probe_limit ?probe_timeout
      ?dead_retry_interval ?drain_deadline
      ~below:[ Sprite_mono.proto m_c ] ~endpoints ()
  in
  let replicas = Array.map mk_client f.World.fo_clients in
  let coord =
    wire_shards ~host:f.World.fo_clients.(0).World.host ?map_delay ?map_jitter
      ~replicas ~selects:[||] shard_map
  in
  {
    fos_name = "M.RPC-" ^ lower_name ^ "-REPLICA";
    fos_call =
      (fun i ?key ~command msg ->
        Select_replica.call replicas.(i) ?key ~command msg);
    fos_clients =
      Array.map (fun (n : World.node) -> n.World.host) f.World.fo_clients;
    fos_servers =
      Array.map (fun (n : World.node) -> n.World.host) f.World.servers;
    fos_replicas = replicas;
    fos_selects = [||];
    fos_admits = [||];
    fos_coord = coord;
  }

(* --- switched configurations: per-host access links, one switch ------ *)

(* The layered stack unchanged, over a switched star instead of a shared
   wire.  Every call crosses the switch (peers are never on-link, so VIP
   falls back to IP-via-gateway), which is exactly what lets an
   in-network computation see the traffic: [?inc_cacheable] installs
   {!Inc} on the switch's forwarding IP instance. *)
let lrpc_switched ?adaptive ?rto_load_floor ?n_channels ?policy
    ?attempt_timeout ?deadline ?max_failovers ?probation ?probe_limit ?admit
    ?propagate_deadline ?retry_budget ?hedge ?probe_timeout
    ?dead_retry_interval ?drain_deadline ?shard_map ?map_delay ?map_jitter
    ?inc_cacheable ?inc_ttl ?inc_capacity (sw : World.switched) =
  let stack =
    lrpc_fanout ?adaptive ?rto_load_floor ?n_channels ?policy ?attempt_timeout
      ?deadline ?max_failovers ?probation ?probe_limit ?admit
      ?propagate_deadline ?retry_budget ?hedge ?probe_timeout
      ?dead_retry_interval ?drain_deadline ?shard_map ?map_delay ?map_jitter
      sw.World.sw
  in
  let inc =
    match inc_cacheable with
    | None -> None
    | Some cacheable ->
        Some
          (Inc.install ~host:sw.World.sw_ports.(0).World.pt_host
             ~ip:sw.World.sw_ip ~cacheable ?ttl:inc_ttl ?capacity:inc_capacity
             ())
  in
  ({ stack with fos_name = "L.RPC-VIP-SWITCHED" }, inc)

(* SELECT-CHANNEL-VIPsize, with FRAGMENT moved below VIPsize and
   VIPaddr below both (Figure 3(b)). *)
let lrpc_vip_size_node (n : World.node) =
  let vaddr = Netproto.Vip_addr.proto n.vip_addr in
  let frag = Fragment.create ~host:n.host ~lower:vaddr () in
  let vsize =
    Netproto.Vip_size.create ~host:n.host ~bulk:(Fragment.proto frag)
      ~direct:vaddr ~arp:n.arp
  in
  let chan =
    Channel.create ~host:n.host ~lower:(Netproto.Vip_size.proto vsize) ()
  in
  let sel = Select.create ~host:n.host ~channel:chan () in
  (frag, vsize, chan, sel)

let lrpc_vip_size (w : World.t) =
  let c = World.node w 0 and s = World.node w 1 in
  let _, _, _, sel_c = lrpc_vip_size_node c in
  let _, _, _, sel_s = lrpc_vip_size_node s in
  standard_handlers (Select.register sel_s);
  Select.serve sel_s;
  let client = ref None in
  let connect () =
    match !client with
    | Some cl -> cl
    | None ->
        let cl = Select.connect sel_c ~server:s.host.Host.ip in
        client := Some cl;
        cl
  in
  {
    config_name = "SELECT-CHANNEL-VIPsize";
    call = (fun ~command msg -> Select.call (connect ()) ~command msg);
    client_host = c.host;
    server_host = s.host;
    tops = [ Select.proto sel_c ];
  }

(* A trivial upper protocol that replies to every CHANNEL request with
   its own body — the measurement harness for Table III row 3. *)
let channel_echo ~host ~channel:chan =
  let p = Proto.create ~host ~name:"CHAN-ECHO" () in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "chan-echo");
      open_enable = (fun ~upper:_ _ -> invalid_arg "chan-echo");
      open_done = (fun ~upper:_ _ -> invalid_arg "chan-echo");
      demux =
        (fun ~lower msg ->
          Machine.charge_one host.Host.mach (Machine.Layer_crossing);
          Proto.push lower msg);
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.declare_below p [ Channel.proto chan ];
  p

let channel_fragment_vip (w : World.t) =
  let c = World.node w 0 and s = World.node w 1 in
  let _, chan_c, _ = lrpc_node c in
  let _, chan_s, _ = lrpc_node s in
  let proto_num = 90 in
  let echo = channel_echo ~host:s.host ~channel:chan_s in
  Proto.open_enable (Channel.proto chan_s) ~upper:echo
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  let sess = ref None in
  let session () =
    match !sess with
    | Some x -> x
    | None ->
        let part =
          Part.v
            ~local:
              [
                Part.Ip c.host.Host.ip; Part.Ip_proto proto_num; Part.Channel 0;
              ]
            ~remotes:[ [ Part.Ip s.host.Host.ip; Part.Ip_proto proto_num ] ]
            ()
        in
        let upper = channel_echo ~host:c.host ~channel:chan_c in
        let x = Proto.open_ (Channel.proto chan_c) ~upper part in
        sess := Some x;
        x
  in
  {
    config_name = "CHANNEL-FRAGMENT-VIP";
    call = (fun ~command:_ msg -> Channel.call chan_c (session ()) msg);
    client_host = c.host;
    server_host = s.host;
    tops = [ Channel.proto chan_c ];
  }

let fragment_probe (w : World.t) =
  let c = World.node w 0 and s = World.node w 1 in
  let frag_c =
    Fragment.create ~host:c.host ~lower:(Netproto.Vip.proto c.vip) ()
  in
  let frag_s =
    Fragment.create ~host:s.host ~lower:(Netproto.Vip.proto s.vip) ()
  in
  let pc =
    Netproto.Probe.create ~host:c.host ~lower:(Fragment.proto frag_c) ()
  in
  let ps =
    Netproto.Probe.create ~host:s.host ~lower:(Fragment.proto frag_s) ()
  in
  Netproto.Probe.serve ps;
  (pc, ps)

let vip_probe (w : World.t) =
  let c = World.node w 0 and s = World.node w 1 in
  let pc =
    Netproto.Probe.create ~host:c.host ~lower:(Netproto.Vip.proto c.vip) ()
  in
  let ps =
    Netproto.Probe.create ~host:s.host ~lower:(Netproto.Vip.proto s.vip) ()
  in
  Netproto.Probe.serve ps;
  (pc, ps)

let udp_probe (w : World.t) ~user_level =
  let c = World.node w 0 and s = World.node w 1 in
  let udp_c =
    Netproto.Udp.create ~host:c.host ~lower:(Netproto.Ip.proto c.ip) ()
  in
  let udp_s =
    Netproto.Udp.create ~host:s.host ~lower:(Netproto.Ip.proto s.ip) ()
  in
  let pc =
    Netproto.Probe.create ~host:c.host ~lower:(Netproto.Udp.proto udp_c)
      ~port:7 ~user_level ()
  in
  let ps =
    Netproto.Probe.create ~host:s.host ~lower:(Netproto.Udp.proto udp_s)
      ~port:7 ~user_level ()
  in
  Netproto.Probe.serve ps;
  (pc, ps)
