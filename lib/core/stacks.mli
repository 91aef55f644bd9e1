(** Named protocol configurations — every stack the paper measures.

    Each builder wires a complete configuration onto an existing
    {!Netproto.World.t} test bed (node 0 = client, node 1 = server),
    registers the standard test procedures on the server, and returns a
    uniform {!endpoints} handle the measurement harness drives.

    Standard procedures: command 1 is the null procedure (null reply —
    the latency and throughput tests of section 4); command 2 echoes its
    argument. *)

type endpoints = {
  config_name : string;
  call :
    command:int -> Xkernel.Msg.t -> (Xkernel.Msg.t, Rpc_error.t) result;
      (** run one RPC from node 0; must be called inside a fiber *)
  client_host : Xkernel.Host.t;
  server_host : Xkernel.Host.t;
  tops : Xkernel.Proto.t list;  (** for {!Xkernel.Proto.pp_graph} *)
}

val cmd_null : int
val cmd_echo : int

type mono_lower = L_eth | L_ip | L_vip

val mrpc : Netproto.World.t -> lower:mono_lower -> endpoints
(** Monolithic Sprite RPC over ETH, IP or VIP — Table I's M.RPC rows
    and Table II's M.RPC-VIP row. *)

val lrpc :
  ?adaptive:bool ->
  ?rto_load_floor:bool ->
  ?n_channels:int ->
  Netproto.World.t ->
  endpoints
(** SELECT-CHANNEL-FRAGMENT-VIP (Figure 3(a)) — L.RPC-VIP in Tables II
    and III.  [adaptive], [rto_load_floor] and [n_channels] are threaded
    to {!Channel.create} (the loss-sweep experiment builds fixed- and
    adaptive-timeout stacks side by side this way). *)

(** {1 Many-host configurations}

    One builder for every multi-host shape: M client hosts into K server
    hosts over a {!Netproto.World.fanout} (all on one wire; the fan-in
    of the load subsystem is K = 1) or a {!Netproto.World.switched}
    star (every host on its own access link, all calls through the
    switch — the remote case of section 3.2, where the switch sees, and
    may compute on, every RPC).  Each server host runs a serving stack
    with the standard procedures registered; each client host gets its
    own client stack. *)

type kind =
  | Layered  (** SELECT-CHANNEL-FRAGMENT-VIP *)
  | Mono of mono_lower  (** monolithic Sprite RPC over ETH, IP or VIP *)

type config = {
  kind : kind;
  adaptive : bool;  (** {!Channel.create}'s adaptive RTO (layered only) *)
  rto_load_floor : bool;  (** its load floor (layered only) *)
  n_channels : int;  (** channels per CHANNEL or M.RPC instance *)
  replica : Select_replica.config option;
      (** [None]: each client calls server 0 directly through its stack
          (the fan-in shape).  [Some]: each client fronts its stack with
          a {!Select_replica} map over all K servers, one lazily-opened
          binding per server. *)
  admit : Admit.config option;
      (** slot an {!Admit} layer between CHANNEL and SELECT on every
          server (layered only) *)
  shard_map : Shard_map.t option;
      (** install the map in every replica map and, on the layered
          stack, every server SELECT (which then answers wrong-shard);
          subscribe them all to a MAP coordinator on the first client
          host ([fos_coord]).  Needs [replica].  The monolithic wire
          cannot carry shard stamps, so there the map only steers
          client-side routing. *)
  inc : int list option;
      (** install {!Inc} on the switch, caching replies to the listed
          SELECT commands ({!Switched} only) *)
}

val default : config
(** The paper's L.RPC-VIP with {!Channel.create}'s defaults (adaptive
    RTO with its load floor, 8 channels), no REPLICA, ADMIT, MAP or
    INC. *)

type topology =
  | Shared of Netproto.World.fanout
  | Switched of Netproto.World.switched

type stack = {
  fos_name : string;
      (** ["L.RPC-VIP"] or ["M.RPC-<lower>"], suffixed ["-REPLICA"]
          with [replica] and ["-SWITCHED"] over a switch *)
  fos_call :
    int ->
    ?key:int ->
    command:int ->
    Xkernel.Msg.t ->
    (Xkernel.Msg.t, Rpc_error.t) result;
      (** [fos_call i] runs one RPC from client host [i] (through its
          replica map, failover included, when there is one); must be
          called inside a fiber.  [key] pins the preferred replica
          under [Select_replica.Hash]. *)
  fos_clients : Xkernel.Host.t array;
  fos_servers : Xkernel.Host.t array;
  fos_replicas : Select_replica.t array;
      (** One replica map per client host, index-aligned with
          [fos_clients]; [[||]] without [replica]. *)
  fos_selects : Select.t array;
      (** Server-side SELECT instances, index-aligned with
          [fos_servers] — for registering extra procedures ([[||]] for
          the monolithic stack, which has no SELECT layer). *)
  fos_admits : Admit.t array;
      (** Admission-control layers, index-aligned with [fos_servers];
          [[||]] without [admit]. *)
  fos_coord : Shard_map.Coordinator.t option;
      (** The MAP coordinator, present with [shard_map]; each client's
          wrong-shard refresh hook pulls its current map. *)
  fos_inc : Inc.t option;  (** The switch's INC, present with [inc]. *)
}

val build : config -> topology -> stack
(** [build config topology] wires [config] onto [topology].  Protocols
    are created servers first, then ADMIT, then clients, then the MAP
    coordinator, then INC.
    @raise Invalid_argument for [admit] on the monolithic stack,
    [shard_map] without [replica], or [inc] without a switch. *)

val lrpc_switched :
  policy:Select_replica.policy ->
  attempt_timeout:float ->
  deadline:float ->
  admit:Admit.config ->
  propagate_deadline:bool ->
  inc_cacheable:int list ->
  Netproto.World.switched ->
  stack * Inc.t option
(** {!build} of the layered stack over the switch with REPLICA, ADMIT
    and INC — the configuration the simulator benchmark (perfbench)
    drives.  Kept only for that caller. *)

val lrpc_vip_size : Netproto.World.t -> endpoints
(** SELECT-CHANNEL-VIPsize with FRAGMENT below VIPsize and VIPaddr at
    the bottom (Figure 3(b)) — the section 4.3 configuration that
    dynamically removes FRAGMENT from the small-message path. *)

val channel_fragment_vip : Netproto.World.t -> endpoints
(** CHANNEL-FRAGMENT-VIP with a trivial echo above CHANNEL — Table III
    row 3.  [call]'s [command] is ignored. *)

val fragment_probe :
  Netproto.World.t -> Netproto.Probe.t * Netproto.Probe.t
(** FRAGMENT-VIP under the Probe echo harness — Table III row 2 and the
    FRAGMENT-alone throughput note of section 4.2.  Returns (client
    probe on node 0, serving probe on node 1). *)

val vip_probe : Netproto.World.t -> Netproto.Probe.t * Netproto.Probe.t
(** Bare VIP under Probe — Table III row 1. *)

val udp_probe :
  Netproto.World.t -> user_level:bool ->
  Netproto.Probe.t * Netproto.Probe.t
(** UDP-IP-ETH under Probe — the intro's UDP round-trip comparison
    (user-to-user when [user_level]). *)
