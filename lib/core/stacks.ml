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

(* A binding opened lazily, from inside the first calling fiber
   (opening one may block on ARP). *)
let lazily open_ =
  let v = ref None in
  fun () ->
    match !v with
    | Some x -> x
    | None ->
        let x = open_ () in
        v := Some x;
        x

(* --- monolithic Sprite RPC ------------------------------------------ *)

type mono_lower = L_eth | L_ip | L_vip

let mono_proto_num = 91
let mono_eth_type = Addr.eth_type_of_ip_proto mono_proto_num
let mono_name = function L_eth -> "ETH" | L_ip -> "IP" | L_vip -> "VIP"

let mono_node ?n_channels lower (n : World.node) =
  let below =
    match lower with
    | L_eth -> Netproto.Eth.proto n.eth
    | L_ip -> Netproto.Ip.proto n.ip
    | L_vip -> Netproto.Vip.proto n.vip
  in
  Sprite_mono.create ~host:n.host ~lower:below ~proto_num:mono_proto_num
    ?n_channels ()

let mono_serve lower m =
  standard_handlers (Sprite_mono.register m);
  match lower with
  | L_eth -> Sprite_mono.serve m ~enable:[ Part.Eth_type mono_eth_type ] ()
  | L_ip | L_vip -> Sprite_mono.serve m ()

(* Over raw ethernet, RPC itself must name the peer with an ethernet
   address; it is resolved once, with ARP, when the binding opens. *)
let mono_binding lower m (n : World.node) server =
  lazily (fun () ->
      match lower with
      | L_eth ->
          let peer_eth =
            match Netproto.Arp.resolve n.arp server with
            | Some e -> e
            | None -> failwith "M.RPC-ETH: cannot resolve server"
          in
          Sprite_mono.connect m ~server
            ~remote:[ Part.Eth peer_eth; Part.Eth_type mono_eth_type ]
            ()
      | L_ip | L_vip -> Sprite_mono.connect m ~server ())

let mrpc (w : World.t) ~lower =
  let c = World.node w 0 and s = World.node w 1 in
  let m_c = mono_node lower c in
  let m_s = mono_node lower s in
  mono_serve lower m_s;
  let conn = mono_binding lower m_c c s.host.Host.ip in
  {
    config_name = "M.RPC-" ^ mono_name lower;
    call = (fun ~command msg -> Sprite_mono.call (conn ()) ~command msg);
    client_host = c.host;
    server_host = s.host;
    tops = [ Sprite_mono.proto m_c ];
  }

(* --- layered L.RPC --------------------------------------------------- *)

(* SELECT-CHANNEL-FRAGMENT-VIP on one node. *)
let lrpc_node ?adaptive ?rto_load_floor ?n_channels (n : World.node) =
  let frag =
    Fragment.create ~host:n.host ~lower:(Netproto.Vip.proto n.vip) ()
  in
  let chan =
    Channel.create ~host:n.host ~lower:(Fragment.proto frag) ?adaptive
      ?rto_load_floor ?n_channels ()
  in
  (chan, Select.create ~host:n.host ~channel:chan ())

(* Two-host endpoints over SELECT: the standard procedures served on
   [s], calls from [c] over a lazily-opened connection. *)
let select_endpoints name (c : World.node) (s : World.node) sel_c sel_s =
  standard_handlers (Select.register sel_s);
  Select.serve sel_s;
  let conn = lazily (fun () -> Select.connect sel_c ~server:s.host.Host.ip) in
  {
    config_name = name;
    call = (fun ~command msg -> Select.call (conn ()) ~command msg);
    client_host = c.host;
    server_host = s.host;
    tops = [ Select.proto sel_c ];
  }

let lrpc ?adaptive ?rto_load_floor ?n_channels (w : World.t) =
  let c = World.node w 0 and s = World.node w 1 in
  let _, sel_c = lrpc_node ?adaptive ?rto_load_floor ?n_channels c in
  let _, sel_s = lrpc_node ?adaptive ?rto_load_floor ?n_channels s in
  select_endpoints "L.RPC-VIP" c s sel_c sel_s

(* --- many-host configurations: one builder --------------------------- *)

type kind = Layered | Mono of mono_lower

type config = {
  kind : kind;
  adaptive : bool;
  rto_load_floor : bool;
  n_channels : int;
  replica : Select_replica.config option;
  admit : Admit.config option;
  shard_map : Shard_map.t option;
  inc : int list option;
}

let default =
  {
    kind = Layered;
    adaptive = true;
    rto_load_floor = true;
    n_channels = 8;
    replica = None;
    admit = None;
    shard_map = None;
    inc = None;
  }

type topology =
  | Shared of World.fanout
  | Switched of World.switched

type stack = {
  fos_name : string;
  fos_call :
    int -> ?key:int -> command:int -> Msg.t -> (Msg.t, Rpc_error.t) result;
  fos_clients : Host.t array;
  fos_servers : Host.t array;
  fos_replicas : Select_replica.t array;
  fos_selects : Select.t array;
  fos_admits : Admit.t array;
  fos_coord : Shard_map.Coordinator.t option;
  fos_inc : Inc.t option;
}

(* Sharded control plane: the coordinator lives on the first client
   host (it must survive any server crash), every shard-aware protocol
   gets the initial map installed directly (no startup race) and
   subscribes for subsequent generations, and each client's wrong-shard
   refresh hook pulls the coordinator's current map — the
   client-initiated half of the MAP protocol. *)
let wire_shards ~host ~replicas ~selects m =
  let coord = Shard_map.Coordinator.create ~host ~map:m () in
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
  coord

let build cfg topology =
  let f, switch =
    match topology with
    | Shared f -> (f, None)
    | Switched sw -> (sw.World.sw, Some sw)
  in
  let require ok what = if not ok then invalid_arg ("Stacks.build: " ^ what) in
  require (Option.is_none cfg.admit || cfg.kind = Layered) "ADMIT needs SELECT";
  require
    (Option.is_none cfg.shard_map || Option.is_some cfg.replica)
    "shard_map needs REPLICA";
  require (Option.is_none cfg.inc || Option.is_some switch) "INC needs switch";
  let node_stack n =
    snd
      (lrpc_node ~adaptive:cfg.adaptive ~rto_load_floor:cfg.rto_load_floor
         ~n_channels:cfg.n_channels n)
  in
  (* Protocols are created servers first, then ADMIT, then clients,
     then MAP, then INC: the order their stats tables register in. *)
  let selects, admits =
    match cfg.kind with
    | Mono lower ->
        Array.iter
          (fun n ->
            mono_serve lower (mono_node ~n_channels:cfg.n_channels lower n))
          f.World.servers;
        ([||], [||])
    | Layered ->
        let selects =
          Array.map
            (fun n ->
              let sel = node_stack n in
              standard_handlers (Select.register sel);
              sel)
            f.World.servers
        in
        let admits =
          match cfg.admit with
          | None ->
              Array.iter Select.serve selects;
              [||]
          | Some config ->
              (* Slot the admission layer between CHANNEL and SELECT on
                 every server: requests surface in ADMIT's queue,
                 survivors are forwarded into the SELECT server. *)
              Array.map2
                (fun (n : World.node) sel ->
                  let adm =
                    Admit.create ~host:n.World.host ~upper:(Select.proto sel)
                      ~config ()
                  in
                  Select.serve_behind sel ~upper:(Admit.proto adm);
                  adm)
                f.World.servers selects
        in
        (selects, admits)
  in
  let server_ips =
    Array.map (fun (n : World.node) -> n.World.host.Host.ip) f.World.servers
  in
  (* Each client host: its own client stack, one lazily-opened binding
     per server, and REPLICA over the bindings when configured; without
     REPLICA the client calls server 0 directly. *)
  let client (n : World.node) =
    let top, bind =
      match cfg.kind with
      | Layered ->
          let sel = node_stack n in
          ( Select.proto sel,
            fun server ->
              let conn = lazily (fun () -> Select.connect sel ~server) in
              fun ?expires ?shard ~command msg ->
                Select.call (conn ()) ?expires ?shard ~command msg )
      | Mono lower ->
          let m = mono_node ~n_channels:cfg.n_channels lower n in
          ( Sprite_mono.proto m,
            fun server ->
              let conn = mono_binding lower m n server in
              (* The monolithic wire cannot carry a shard stamp; the
                 routing map still steers which replica is called. *)
              fun ?expires:_ ?shard:_ ~command msg ->
                Sprite_mono.call (conn ()) ~command msg )
    in
    match cfg.replica with
    | None ->
        let call = bind server_ips.(0) in
        (None, fun ?key:_ ~command msg -> call ~command msg)
    | Some config ->
        let endpoints =
          Array.map
            (fun ep_addr -> { Select_replica.ep_addr; ep_call = bind ep_addr })
            server_ips
        in
        let r =
          Select_replica.create ~host:n.World.host ~config ~below:[ top ]
            ~endpoints ()
        in
        (Some r, Select_replica.call r)
  in
  let clients = Array.map client f.World.fo_clients in
  let replicas = Array.of_list (List.filter_map fst (Array.to_list clients)) in
  let coord =
    Option.map
      (wire_shards ~host:f.World.fo_clients.(0).World.host ~replicas ~selects)
      cfg.shard_map
  in
  let inc =
    match (switch, cfg.inc) with
    | Some sw, Some cacheable ->
        Some
          (Inc.install ~host:sw.World.sw_ports.(0).World.pt_host
             ~ip:sw.World.sw_ip ~cacheable ())
    | _ -> None
  in
  let base =
    match cfg.kind with
    | Layered -> "L.RPC-VIP"
    | Mono lower -> "M.RPC-" ^ mono_name lower
  in
  let hosts = Array.map (fun (n : World.node) -> n.World.host) in
  {
    fos_name =
      (if Option.is_some switch then base ^ "-SWITCHED"
       else if Option.is_some cfg.replica then base ^ "-REPLICA"
       else base);
    (* Full arity: returning [snd clients.(i)] for the caller to apply
       allocates on every call. *)
    fos_call = (fun i ?key ~command msg -> snd clients.(i) ?key ~command msg);
    fos_clients = hosts f.World.fo_clients;
    fos_servers = hosts f.World.servers;
    fos_replicas = replicas;
    fos_selects = selects;
    fos_admits = admits;
    fos_coord = coord;
    fos_inc = inc;
  }

(* The switched L.RPC stack as the simulator benchmark builds it. *)
let lrpc_switched ~policy ~attempt_timeout ~deadline ~admit
    ~propagate_deadline ~inc_cacheable sw =
  let r = Select_replica.default in
  let r = { r with policy; attempt_timeout; deadline; propagate_deadline } in
  let s =
    build
      {
        default with
        replica = Some r;
        admit = Some admit;
        inc = Some inc_cacheable;
      }
      (Switched sw)
  in
  (s, s.fos_inc)

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
  Select.create ~host:n.host ~channel:chan ()

let lrpc_vip_size (w : World.t) =
  let c = World.node w 0 and s = World.node w 1 in
  let sel_c = lrpc_vip_size_node c in
  let sel_s = lrpc_vip_size_node s in
  select_endpoints "SELECT-CHANNEL-VIPsize" c s sel_c sel_s

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
  let chan_c, _ = lrpc_node c in
  let chan_s, _ = lrpc_node s in
  let proto_num = 90 in
  let echo = channel_echo ~host:s.host ~channel:chan_s in
  Proto.open_enable (Channel.proto chan_s) ~upper:echo
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  let session =
    lazily (fun () ->
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
        Proto.open_ (Channel.proto chan_c) ~upper part)
  in
  {
    config_name = "CHANNEL-FRAGMENT-VIP";
    call = (fun ~command:_ msg -> Channel.call chan_c (session ()) msg);
    client_host = c.host;
    server_host = s.host;
    tops = [ Channel.proto chan_c ];
  }

(* A Probe pair over [lower_of] on nodes 0 (client) and 1 (serving);
   the lower protocols are all created before the probes. *)
let probe_pair ?port ?user_level (w : World.t) lower_of =
  let c = World.node w 0 and s = World.node w 1 in
  let lower_c = lower_of c in
  let lower_s = lower_of s in
  let probe (n : World.node) lower =
    Netproto.Probe.create ~host:n.host ~lower ?port ?user_level ()
  in
  let pc = probe c lower_c in
  let ps = probe s lower_s in
  Netproto.Probe.serve ps;
  (pc, ps)

let fragment_probe w =
  probe_pair w (fun n ->
      Fragment.proto
        (Fragment.create ~host:n.host ~lower:(Netproto.Vip.proto n.vip) ()))

let vip_probe w = probe_pair w (fun n -> Netproto.Vip.proto n.vip)

let udp_probe w ~user_level =
  probe_pair ~port:7 ~user_level w (fun n ->
      Netproto.Udp.proto
        (Netproto.Udp.create ~host:n.host ~lower:(Netproto.Ip.proto n.ip) ()))
