type fault = Drop | Duplicate | Delay of float | Corrupt of int

type stats = {
  frames : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  delayed : int;
  partitioned : int;
  bytes : int;
}

type attachment = { tap_id : int; recv : Msg.t -> unit }

(* The {!stats} counters, counted in place by index so a frame
   allocates no record.  A labelled wire mirrors each one into a
   registered per-wire table through handles resolved at create time;
   only labelled wires pay for (or appear in) the registry, since a
   multi-wire world would otherwise collide every wire's gauges on one
   key. *)
let counter_names =
  [|
    "frames";
    "delivered";
    "dropped";
    "duplicated";
    "corrupted";
    "delayed";
    "partitioned";
    "bytes";
  |]

let i_frames = 0
let i_delivered = 1
let i_dropped = 2
let i_duplicated = 3
let i_corrupted = 4
let i_delayed = 5
let i_partitioned = 6
let i_bytes = 7

type t = {
  w_sim : Sim.t;
  bandwidth : float;
  propagation : float;
  medium : Sim.Semaphore.sem;
  rng : Random.State.t;
  w_label : string option;
  mirror : Stats.counter array; (* empty when unlabelled *)
  mutable taps : attachment list;
  mutable next_tap : int;
  mutable drop_rate : float;
  mutable dup_rate : float;
  mutable corrupt_rate : float;
  mutable reorder_rate : float;
  mutable reorder_jitter : float;
  mutable fault_hook : (int -> Msg.t -> fault list) option;
  mutable down : bool;
  blocked : (int * int, unit) Hashtbl.t; (* (src tap, dst tap) pairs *)
  mutable frame_count : int;
  counts : int array; (* indexed like [counter_names] *)
}

let create w_sim ?(bandwidth_bps = 10e6) ?(propagation = 5e-6) ?(seed = 42)
    ?label () =
  let mirror =
    match label with
    | None -> [||]
    | Some l ->
        let tbl = Stats.create ~name:("wire/" ^ l) () in
        Array.map (Stats.counter tbl) counter_names
  in
  {
    w_sim;
    bandwidth = bandwidth_bps;
    propagation;
    medium = Sim.Semaphore.create w_sim 1;
    rng = Random.State.make [| seed |];
    w_label = label;
    mirror;
    taps = [];
    next_tap = 0;
    drop_rate = 0.;
    dup_rate = 0.;
    corrupt_rate = 0.;
    reorder_rate = 0.;
    reorder_jitter = 0.;
    fault_hook = None;
    down = false;
    blocked = Hashtbl.create 8;
    frame_count = 0;
    counts = Array.make (Array.length counter_names) 0;
  }

let sim w = w.w_sim
let bandwidth_bps w = w.bandwidth
let label w = w.w_label

let count w i n =
  w.counts.(i) <- w.counts.(i) + n;
  if Array.length w.mirror > 0 then Stats.bump w.mirror.(i) n

let attach w ~recv =
  let tap = { tap_id = w.next_tap; recv } in
  w.next_tap <- w.next_tap + 1;
  w.taps <- tap :: w.taps;
  tap

(* CRC (4) + preamble (8) + inter-frame gap (12), with the 64-byte
   minimum applying to header+payload+CRC. *)
let on_wire_bytes len = max (len + 4) 64 + 20

let set_drop_rate w r = w.drop_rate <- r
let set_dup_rate w r = w.dup_rate <- r
let set_corrupt_rate w r = w.corrupt_rate <- r

let set_reorder w ~rate ~jitter =
  w.reorder_rate <- rate;
  w.reorder_jitter <- jitter

let set_fault_hook w h = w.fault_hook <- h

(* Partitions.  Blocking is directional and per (source, destination)
   attachment pair; a network partition blocks both directions of every
   pair crossing the cut.  Suppressed deliveries are counted as
   [partitioned], not [dropped] — a partition is topology, not noise. *)
let block_pair w ~from ~to_ =
  Hashtbl.replace w.blocked (from.tap_id, to_.tap_id) ()

let unblock_pair w ~from ~to_ =
  Hashtbl.remove w.blocked (from.tap_id, to_.tap_id)

let pair_blocked w ~from ~to_ =
  Hashtbl.length w.blocked > 0
  && Hashtbl.mem w.blocked (from.tap_id, to_.tap_id)

(* Whole-wire cut: an unplugged access link.  Suppressed deliveries
   count as [partitioned] like any other topology fault; the
   transmitter still serializes (it cannot see the far end is gone). *)
let set_down w d = w.down <- d
let is_down w = w.down

let stats w =
  let c = w.counts in
  {
    frames = c.(i_frames);
    delivered = c.(i_delivered);
    dropped = c.(i_dropped);
    duplicated = c.(i_duplicated);
    corrupted = c.(i_corrupted);
    delayed = c.(i_delayed);
    partitioned = c.(i_partitioned);
    bytes = c.(i_bytes);
  }

let reset_stats w = Array.fill w.counts 0 (Array.length w.counts) 0

let flip w rate = rate > 0. && Random.State.float w.rng 1. < rate

let draw_faults w msg =
  if flip w w.drop_rate then [ Drop ]
  else begin
    let faults = ref [] in
    if flip w w.dup_rate then faults := Duplicate :: !faults;
    if flip w w.reorder_rate then
      faults := Delay (Random.State.float w.rng w.reorder_jitter) :: !faults;
    if flip w w.corrupt_rate && Msg.length msg > 0 then
      faults := Corrupt (Random.State.int w.rng (Msg.length msg)) :: !faults;
    !faults
  end

(* Hand one frame to every other tap, [copies] times each: the first
   copy is [first] (possibly corrupted), later ones the clean [msg]. *)
let rec deliver w ~from ~copies ~delay ~first msg = function
  | [] -> ()
  | tap :: taps ->
      if tap.tap_id <> from.tap_id then
        if w.down || pair_blocked w ~from ~to_:tap then
          count w i_partitioned 1
        else
          (* Corruption damages the original transmission; a Duplicate
             is an independent clean copy.  [delivered] counts every
             copy actually handed to a tap. *)
          for copy = 1 to copies do
            let m = if copy = 1 then first else msg in
            count w i_delivered 1;
            ignore (Sim.after w.w_sim delay (fun () -> tap.recv m))
          done;
      deliver w ~from ~copies ~delay ~first msg taps

(* Fold the faults in list order into a copy count, an extra delay and
   the (possibly corrupted) first copy, then deliver. *)
let rec apply w ~from msg ~copies ~extra ~first = function
  | [] ->
      deliver w ~from ~copies ~delay:(w.propagation +. extra) ~first msg w.taps
  | Drop :: faults -> apply w ~from msg ~copies ~extra ~first faults
  | Duplicate :: faults ->
      count w i_duplicated 1;
      apply w ~from msg ~copies:(copies + 1) ~extra ~first faults
  | Delay d :: faults ->
      count w i_delayed 1;
      apply w ~from msg ~copies ~extra:(extra +. d) ~first faults
  | Corrupt off :: faults when Msg.length msg > 0 ->
      let off = off mod Msg.length msg in
      let first =
        Msg.map_byte off (fun c -> Char.chr (Char.code c lxor 0xff)) first
      in
      count w i_corrupted 1;
      apply w ~from msg ~copies ~extra ~first faults
  | Corrupt _ :: faults -> apply w ~from msg ~copies ~extra ~first faults

let transmit w ~from msg =
  let n = w.frame_count in
  w.frame_count <- n + 1;
  let wire_bytes = on_wire_bytes (Msg.length msg) in
  count w i_frames 1;
  count w i_bytes wire_bytes;
  Sim.Semaphore.p w.medium;
  Sim.delay w.w_sim (float_of_int (wire_bytes * 8) /. w.bandwidth);
  Sim.Semaphore.v w.medium;
  let faults =
    match w.fault_hook with
    | Some hook -> hook n msg
    | None -> draw_faults w msg
  in
  if List.mem Drop faults then count w i_dropped 1
  else apply w ~from msg ~copies:1 ~extra:0. ~first:msg faults
