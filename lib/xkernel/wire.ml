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

let zero_stats =
  {
    frames = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    corrupted = 0;
    delayed = 0;
    partitioned = 0;
    bytes = 0;
  }

type attachment = { tap_id : int; recv : Msg.t -> unit }

(* Mirror handles into a registered per-wire table, resolved once at
   create time.  Only labelled wires pay for (or appear in) the
   registry: a multi-wire world would otherwise collide every wire's
   gauges on one key. *)
type lbl = {
  l_frames : Stats.counter;
  l_delivered : Stats.counter;
  l_dropped : Stats.counter;
  l_duplicated : Stats.counter;
  l_corrupted : Stats.counter;
  l_delayed : Stats.counter;
  l_partitioned : Stats.counter;
  l_bytes : Stats.counter;
}

type t = {
  w_sim : Sim.t;
  bandwidth : float;
  propagation : float;
  medium : Sim.Semaphore.sem;
  rng : Random.State.t;
  w_label : string option;
  lbl : lbl option;
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
  mutable st : stats;
}

let create w_sim ?(bandwidth_bps = 10e6) ?(propagation = 5e-6) ?(seed = 42)
    ?label () =
  let lbl =
    match label with
    | None -> None
    | Some l ->
        let tbl = Stats.create ~name:("wire/" ^ l) () in
        Some
          {
            l_frames = Stats.counter tbl "frames";
            l_delivered = Stats.counter tbl "delivered";
            l_dropped = Stats.counter tbl "dropped";
            l_duplicated = Stats.counter tbl "duplicated";
            l_corrupted = Stats.counter tbl "corrupted";
            l_delayed = Stats.counter tbl "delayed";
            l_partitioned = Stats.counter tbl "partitioned";
            l_bytes = Stats.counter tbl "bytes";
          }
  in
  {
    w_sim;
    bandwidth = bandwidth_bps;
    propagation;
    medium = Sim.Semaphore.create w_sim 1;
    rng = Random.State.make [| seed |];
    w_label = label;
    lbl;
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
    st = zero_stats;
  }

let sim w = w.w_sim
let bandwidth_bps w = w.bandwidth
let label w = w.w_label

let mirror w f =
  match w.lbl with None -> () | Some l -> Stats.tick (f l)

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
  Hashtbl.mem w.blocked (from.tap_id, to_.tap_id)

(* Whole-wire cut: an unplugged access link.  Suppressed deliveries
   count as [partitioned] like any other topology fault; the
   transmitter still serializes (it cannot see the far end is gone). *)
let set_down w d = w.down <- d
let is_down w = w.down

let stats w = w.st
let reset_stats w = w.st <- zero_stats

let draw_faults w msg =
  let faults = ref [] in
  let flip rate = rate > 0. && Random.State.float w.rng 1. < rate in
  if flip w.drop_rate then faults := Drop :: !faults
  else begin
    if flip w.dup_rate then faults := Duplicate :: !faults;
    if flip w.reorder_rate then
      faults := Delay (Random.State.float w.rng w.reorder_jitter) :: !faults;
    if flip w.corrupt_rate && Msg.length msg > 0 then
      faults := Corrupt (Random.State.int w.rng (Msg.length msg)) :: !faults
  end;
  !faults

let transmit w ~from msg =
  let n = w.frame_count in
  w.frame_count <- n + 1;
  let wire_bytes = on_wire_bytes (Msg.length msg) in
  w.st <- { w.st with frames = w.st.frames + 1; bytes = w.st.bytes + wire_bytes };
  mirror w (fun l -> l.l_frames);
  (match w.lbl with
  | None -> ()
  | Some l -> Stats.bump l.l_bytes wire_bytes);
  Sim.Semaphore.p w.medium;
  Sim.delay w.w_sim (float_of_int (wire_bytes * 8) /. w.bandwidth);
  Sim.Semaphore.v w.medium;
  let faults =
    match w.fault_hook with
    | Some hook -> hook n msg
    | None -> draw_faults w msg
  in
  if List.mem Drop faults then begin
    w.st <- { w.st with dropped = w.st.dropped + 1 };
    mirror w (fun l -> l.l_dropped)
  end
  else begin
    let copies = ref 1 in
    let extra_delay = ref 0. in
    let delivered_msg = ref msg in
    let apply = function
      | Drop -> ()
      | Duplicate ->
          incr copies;
          w.st <- { w.st with duplicated = w.st.duplicated + 1 };
          mirror w (fun l -> l.l_duplicated)
      | Delay d ->
          extra_delay := !extra_delay +. d;
          w.st <- { w.st with delayed = w.st.delayed + 1 };
          mirror w (fun l -> l.l_delayed)
      | Corrupt off when Msg.length msg > 0 ->
          let off = off mod Msg.length msg in
          delivered_msg :=
            Msg.map_byte off (fun c -> Char.chr (Char.code c lxor 0xff)) !delivered_msg;
          w.st <- { w.st with corrupted = w.st.corrupted + 1 };
          mirror w (fun l -> l.l_corrupted)
      | Corrupt _ -> ()
    in
    List.iter apply faults;
    let deliver_to tap =
      if tap.tap_id <> from.tap_id then
        if w.down || Hashtbl.mem w.blocked (from.tap_id, tap.tap_id) then begin
          w.st <- { w.st with partitioned = w.st.partitioned + 1 };
          mirror w (fun l -> l.l_partitioned)
        end
        else
        (* Corruption damages the original transmission; a Duplicate is
           an independent clean copy.  [delivered] counts every copy
           actually handed to a tap. *)
        for copy = 1 to !copies do
          let m = if copy = 1 then !delivered_msg else msg in
          w.st <- { w.st with delivered = w.st.delivered + 1 };
          mirror w (fun l -> l.l_delivered);
          ignore
            (Sim.after w.w_sim (w.propagation +. !extra_delay) (fun () ->
                 tap.recv m))
        done
    in
    List.iter deliver_to w.taps
  end
