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

(** {1 Fan-in configurations}

    The load subsystem ({!Load}) drives M client hosts into one server
    over a {!Netproto.World.fanin} topology.  Each client host gets its
    own client-side stack; the server runs a single serving stack with
    the standard procedures registered. *)

type fan = {
  fan_name : string;
  fan_call :
    int -> command:int -> Xkernel.Msg.t -> (Xkernel.Msg.t, Rpc_error.t) result;
      (** [fan_call i] runs one RPC from client host [i]; must be
          called inside a fiber.  Calls from many fibers on the same
          client queue on that client's channel set. *)
  fan_clients : Xkernel.Host.t array;
  fan_server : Xkernel.Host.t;
}

val mrpc_fanin :
  ?lower:mono_lower -> ?n_channels:int -> Netproto.World.fanin -> fan
(** Monolithic Sprite RPC, one instance per client host (default lower
    [L_vip]), fanned into one server instance. *)

val lrpc_fanin :
  ?adaptive:bool ->
  ?rto_load_floor:bool ->
  ?n_channels:int ->
  Netproto.World.fanin ->
  fan
(** SELECT-CHANNEL-FRAGMENT-VIP fan-in: a full layered client stack
    per client host, one serving stack. *)

(** {1 Fan-out (replicated) configurations}

    The failover experiment drives M client hosts into K server
    replicas over a {!Netproto.World.fanout} topology.  Each client
    host gets its own stack {e plus} a {!Select_replica} map over all
    K servers; each server host runs a full serving stack with the
    standard procedures registered. *)

type fanout_stack = {
  fos_name : string;
  fos_call :
    int ->
    ?key:int ->
    command:int ->
    Xkernel.Msg.t ->
    (Xkernel.Msg.t, Rpc_error.t) result;
      (** [fos_call i] runs one RPC from client host [i] through its
          replica map (failover included); must be called inside a
          fiber.  [key] pins the preferred replica under
          [Select_replica.Hash]. *)
  fos_clients : Xkernel.Host.t array;
  fos_servers : Xkernel.Host.t array;
  fos_replicas : Select_replica.t array;
      (** One replica map per client host, index-aligned with
          [fos_clients] — for health/failover introspection. *)
  fos_selects : Select.t array;
      (** Server-side SELECT instances, index-aligned with
          [fos_servers] — for registering extra procedures ([[||]] for
          the monolithic stack, which has no SELECT layer). *)
  fos_admits : Admit.t array;
      (** Admission-control layers, index-aligned with [fos_servers];
          [[||]] unless built with [?admit]. *)
  fos_coord : Shard_map.Coordinator.t option;
      (** The MAP coordinator (on [fos_clients.(0)]'s host), present
          when built with [?shard_map].  Every replica map — and, on
          the layered stack, every server SELECT — has the initial map
          installed and is subscribed for later generations; each
          client's wrong-shard refresh hook pulls the coordinator's
          current map. *)
}

val lrpc_fanout :
  ?adaptive:bool ->
  ?rto_load_floor:bool ->
  ?n_channels:int ->
  ?policy:Select_replica.policy ->
  ?attempt_timeout:float ->
  ?deadline:float ->
  ?max_failovers:int ->
  ?probation:float ->
  ?probe_limit:int ->
  ?admit:Admit.config ->
  ?propagate_deadline:bool ->
  ?retry_budget:float ->
  ?hedge:bool ->
  ?probe_timeout:float ->
  ?dead_retry_interval:float ->
  ?drain_deadline:float ->
  ?shard_map:Shard_map.t ->
  ?map_delay:float ->
  ?map_jitter:float ->
  Netproto.World.fanout ->
  fanout_stack
(** REPLICA over SELECT-CHANNEL-FRAGMENT-VIP: a full layered client
    stack per client host with one lazily-opened connection per
    server replica.

    Overload-control knobs, all off by default: [admit] slots an
    {!Admit} layer between CHANNEL and SELECT on every server;
    [propagate_deadline] / [retry_budget] / [hedge] configure the
    client-side governance in {!Select_replica}.

    Sharding knobs, also all off by default: [shard_map] installs the
    map everywhere, enables server-side ownership checks and stands up
    the MAP coordinator ([fos_coord]); [drain_deadline] /
    [probe_timeout] / [dead_retry_interval] configure
    {!Select_replica}; [map_delay] / [map_jitter] shape MAP push
    delivery. *)

val mrpc_fanout :
  ?lower:mono_lower ->
  ?n_channels:int ->
  ?policy:Select_replica.policy ->
  ?attempt_timeout:float ->
  ?deadline:float ->
  ?max_failovers:int ->
  ?probation:float ->
  ?probe_limit:int ->
  ?probe_timeout:float ->
  ?dead_retry_interval:float ->
  ?drain_deadline:float ->
  ?shard_map:Shard_map.t ->
  ?map_delay:float ->
  ?map_jitter:float ->
  Netproto.World.fanout ->
  fanout_stack
(** REPLICA over monolithic Sprite RPC (default lower [L_vip]), one
    client instance per host fanned out to K server instances.  The
    monolithic wire cannot carry shard stamps, so with [?shard_map]
    the map steers client-side routing (and the coordinator still
    distributes updates) but servers never answer wrong-shard. *)

(** {1 Switched configurations}

    The same stacks over a {!Netproto.World.switched} star: every host
    on its own access link, all calls through the switch.  Peers are
    never on the local wire, so VIP always takes the IP-via-gateway
    path — the remote case of section 3.2 — and the switch sees (and
    may compute on) every RPC. *)

val lrpc_switched :
  ?adaptive:bool ->
  ?rto_load_floor:bool ->
  ?n_channels:int ->
  ?policy:Select_replica.policy ->
  ?attempt_timeout:float ->
  ?deadline:float ->
  ?max_failovers:int ->
  ?probation:float ->
  ?probe_limit:int ->
  ?admit:Admit.config ->
  ?propagate_deadline:bool ->
  ?retry_budget:float ->
  ?hedge:bool ->
  ?probe_timeout:float ->
  ?dead_retry_interval:float ->
  ?drain_deadline:float ->
  ?shard_map:Shard_map.t ->
  ?map_delay:float ->
  ?map_jitter:float ->
  ?inc_cacheable:int list ->
  ?inc_ttl:float ->
  ?inc_capacity:int ->
  Netproto.World.switched ->
  fanout_stack * Inc.t option
(** {!lrpc_fanout} over the switched star.  [inc_cacheable] installs
    the {!Inc} in-network computation on the switch, caching replies to
    the listed SELECT commands ([inc_ttl] / [inc_capacity] bound the
    cache); omitted, the switch is a plain forwarder and the second
    component is [None]. *)

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
