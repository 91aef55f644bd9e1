(** In-network computation: RPC work done by the switch.

    A virtual protocol in the paper's sense — no wire format of its own
    — installed on a forwarding IP instance (the switch of
    [World.create_switched]) via [Ip.set_forward_hook].  It interprets
    SELECT-CHANNEL-FRAGMENT datagrams in transit and does two things a
    server otherwise pays for:

    - {b Reply caching}: replies to registered idempotent commands are
      remembered (keyed by client, server, and the exact request bytes,
      with a TTL and a bounded capacity) and repeated requests are
      answered from the switch — the server's access link and CPU see
      nothing.
    - {b Deadline shedding}: requests whose propagated CHANNEL deadline
      is already zero are dropped at the switch instead of costing the
      server an interrupt and a parse before it drops them itself.

    Everything else — multi-fragment messages, acks, nacks, unregistered
    commands, non-RPC traffic — forwards untouched.

    {b Generation safety}: a cached reply is never served across a
    shard-map generation it predates.  The request's shard stamp is part
    of the cache key, the newest (epoch, version) seen in transit is a
    high-water mark that invalidates older entries, and an observed
    [wrong_shard] reply bumps the mark — so after a rebalance the switch
    falls back to forwarding until fresh replies repopulate the cache.
    A server reboot (new boot id in a reply) likewise flushes. *)

type t

val install :
  host:Xkernel.Host.t ->
  ip:Netproto.Ip.t ->
  ?cacheable:int list ->
  ?ttl:float ->
  ?capacity:int ->
  unit ->
  t
(** [install ~host ~ip ()] hangs the computation off [ip]'s forward
    hook; [host] is the switch host whose machine is charged for header
    parsing and reply synthesis (port 0 of a switched world).
    [cacheable] (default none — commands must be registered explicitly,
    and probe/health commands never should be) lists SELECT command
    numbers whose replies may be cached; [ttl] (default 2 s) and
    [capacity] (default 1024 entries, FIFO eviction) bound the cache.
    Registers a stats table named ["<host>/INC"] with counters [hits],
    [misses], [sheds], [forwarded], [stored] and [invalidated]. *)

val stats : t -> Xkernel.Stats.t

val hits : t -> int
(** Requests answered from the cache. *)

val misses : t -> int
(** Cacheable requests that had to be forwarded. *)

val sheds : t -> int
(** Expired-deadline requests dropped at the switch. *)

val forwarded : t -> int
(** RPC requests passed through to a server. *)

val stored : t -> int
val invalidated : t -> int

val cache_size : t -> int

val map_generation : t -> int * int
(** Newest shard-map (epoch, version) observed in transit. *)
