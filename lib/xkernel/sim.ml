exception Not_in_fiber
exception Stalled of string

(* The event queue is split in two, both ordered by [(time, seq)] —
   [seq] is a global schedule counter, so ties at one instant fire in
   FIFO order, exactly like the [Map.Make (float * int)] queue this
   replaces:

   - [heap]/[times]: an array-backed binary min-heap for events in the
     future.  [times] mirrors the key's time component in an unboxed
     float array so sift comparisons never chase a boxed float.
   - [imm]: a plain FIFO for events scheduled at the current instant
     (fiber resumptions, yields, spawns — roughly half of all
     traffic).  [now] never decreases and [seq] only grows, so this
     queue is (time, seq)-sorted by construction and costs O(1) where
     the heap would pay its worst case (a new minimum sifts to the
     root and is popped right back).

   A timed wait ([delay], [yield]) is one event that fires twice.  It
   is queued at its wake time; when it fires it draws a fresh [seq]
   and re-enters [imm] — the place a separate resume event scheduled at
   the wake instant would take — and its second firing resumes the
   fiber.  Both firings count as events, so [processed] and the
   [max_events] guard see a timed wait as two events, while the wait
   allocates one event record and one closure.

   Cancellation is lazy: [cancel] marks the event and the run loop
   discards corpses as they surface; once heap corpses pass a
   threshold the heap is compacted in one O(n) pass, so [pending]
   counts only live events and long sweeps that cancel many retransmit
   timers cannot grow memory without bound. *)

(* An event does not store its own time: heap entries keep it in the
   side [times] array, and an [imm] entry's time is by construction
   [now] from the moment it is enqueued until it fires (the loop always
   executes the global (time, seq) minimum and time never decreases, so
   the clock cannot pass a queued immediate).  Dropping the float field
   keeps the record box-free. *)
type event = {
  mutable seq : int; (* redrawn when a [Wake] re-enters [imm] *)
  mutable cancelled : bool;
  mutable fired : bool; (* left the queues (ran, skipped, or purged) *)
  mutable kind : kind;
  thunk : unit -> unit;
  owner : t;
}

(* What firing an event does with its thunk: call it, run it as a new
   fiber ([after] and [spawn]), or — the first half of a timed wait —
   re-enter the immediate ring to resume the waiting fiber. *)
and kind = Call | Fiber | Wake

(* All-float, so the fields are stored unboxed: advancing the clock on
   every heap pop allocates nothing.  [wake] carries a timed wait's
   wake time from [delay] to the effect handler. *)
and clock = { mutable now : float; mutable wake : float }

and t = {
  clock : clock;
  mutable heap : event array;
  mutable times : float array; (* times.(i) = heap.(i)'s fire time, unboxed *)
  mutable heap_size : int;
  (* [imm] is a power-of-two ring buffer; head and tail grow without
     bound and are masked on access. *)
  mutable imm : event array;
  mutable imm_head : int;
  mutable imm_tail : int;
  mutable live : int; (* queued events not yet cancelled *)
  mutable next_seq : int;
  mutable processed : int;
  max_events : int;
  sim_rng : Random.State.t;
  dummy : event; (* fills empty queue slots, so popped thunks get freed *)
  delay_eff : unit Effect.t; (* [Delay self], allocated once *)
  mutable handler : unit Effect.Deep.effect_handler; (* one per sim *)
}

(* A fiber suspends by handing its resumption to [register]; whoever
   holds the resumption calls it exactly once to schedule the fiber's
   continuation as an immediate event.  The continuation's position in
   the same-instant FIFO is fixed when [resume] runs, not when the
   fiber suspended, which is what makes runs deterministic.

   [Delay src] is the dominant suspension — a timed wait until
   [src.clock.wake].  Each sim preallocates its own [Delay self], so
   performing it allocates nothing; the [src] field lets the handler
   read the right wake time when a fiber delays on a simulator other
   than the one running it. *)
type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t
type _ Effect.t += Delay : t -> unit Effect.t

let now t = t.clock.now
let pending t = t.live
let processed t = t.processed
let rng t = t.sim_rng

(* --- heap primitives --- *)

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let ti = t.times.(i) and tp = t.times.(p) in
    if ti < tp || (ti = tp && t.heap.(i).seq < t.heap.(p).seq) then begin
      let ev = t.heap.(i) in
      t.heap.(i) <- t.heap.(p);
      t.heap.(p) <- ev;
      t.times.(i) <- tp;
      t.times.(p) <- ti;
      sift_up t p
    end
  end

let rec sift_down t n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let s =
      if
        l + 1 < n
        && (t.times.(l + 1) < t.times.(l)
           || (t.times.(l + 1) = t.times.(l)
              && t.heap.(l + 1).seq < t.heap.(l).seq))
      then l + 1
      else l
    in
    let ts = t.times.(s) and ti = t.times.(i) in
    if ts < ti || (ts = ti && t.heap.(s).seq < t.heap.(i).seq) then begin
      let ev = t.heap.(i) in
      t.heap.(i) <- t.heap.(s);
      t.heap.(s) <- ev;
      t.times.(i) <- ts;
      t.times.(s) <- ti;
      sift_down t n s
    end
  end

let heap_push t time ev =
  let cap = Array.length t.heap in
  if t.heap_size = cap then begin
    let cap' = max 256 (2 * cap) in
    let grown = Array.make cap' t.dummy in
    let grown_times = Array.make cap' infinity in
    Array.blit t.heap 0 grown 0 t.heap_size;
    Array.blit t.times 0 grown_times 0 t.heap_size;
    t.heap <- grown;
    t.times <- grown_times
  end;
  t.heap.(t.heap_size) <- ev;
  t.times.(t.heap_size) <- time;
  t.heap_size <- t.heap_size + 1;
  sift_up t (t.heap_size - 1)

(* Pop the root.  The caller decides whether it was live. *)
let heap_pop t =
  let ev = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  t.heap.(0) <- t.heap.(t.heap_size);
  t.times.(0) <- t.times.(t.heap_size);
  t.heap.(t.heap_size) <- t.dummy;
  t.times.(t.heap_size) <- infinity;
  if t.heap_size > 0 then sift_down t t.heap_size 0;
  ev

(* Compact away cancelled events and re-heapify (Floyd's O(n) pass).
   Heap order depends only on the (time, seq) key, so rebuilding cannot
   perturb the firing schedule. *)
let purge t =
  let h = t.heap in
  let kept = ref 0 in
  for i = 0 to t.heap_size - 1 do
    let ev = h.(i) in
    if ev.cancelled then ev.fired <- true
    else begin
      h.(!kept) <- ev;
      t.times.(!kept) <- t.times.(i);
      incr kept
    end
  done;
  for i = !kept to t.heap_size - 1 do
    h.(i) <- t.dummy;
    t.times.(i) <- infinity
  done;
  t.heap_size <- !kept;
  for i = (!kept / 2) - 1 downto 0 do
    sift_down t !kept i
  done

(* Compacting is O(n), so only bother once the corpses both dominate
   the heap and number enough to matter.  Corpses in [imm] are at the
   current instant and drain on their own within a few pops. *)
let purge_floor = 64

let maybe_purge t =
  let dead = t.heap_size + (t.imm_tail - t.imm_head) - t.live in
  if dead > purge_floor && 2 * dead > t.heap_size then purge t

let imm_add t ev =
  let cap = Array.length t.imm in
  let len = t.imm_tail - t.imm_head in
  if len = cap then begin
    let grown = Array.make (max 16 (2 * cap)) t.dummy in
    for i = 0 to len - 1 do
      grown.(i) <- t.imm.((t.imm_head + i) land (cap - 1))
    done;
    t.imm <- grown;
    t.imm_head <- 0;
    t.imm_tail <- len
  end;
  t.imm.(t.imm_tail land (Array.length t.imm - 1)) <- ev;
  t.imm_tail <- t.imm_tail + 1

let schedule_at t time kind thunk =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let ev = { seq; cancelled = false; fired = false; kind; thunk; owner = t } in
  (* Scheduling in the past never happens (all entry points add a
     non-negative delay to [now]), so [time = now] is the instant case. *)
  if time = t.clock.now then imm_add t ev else heap_push t time ev;
  t.live <- t.live + 1;
  ev

let cancel ev =
  if ev.cancelled || ev.fired then false
  else begin
    ev.cancelled <- true;
    let t = ev.owner in
    t.live <- t.live - 1;
    maybe_purge t;
    true
  end

(* Queue a timed wait's one event: a [Wake] at [t.clock.wake] whose
   second firing (see [run]) continues the fiber. *)
let wait t k =
  ignore
    (schedule_at t t.clock.wake Wake (fun () -> Effect.Deep.continue k ()))

let handler t =
  let open Effect.Deep in
  let delay_response = Some (fun k -> wait t k) in
  {
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Delay src ->
            if src != t then t.clock.wake <- src.clock.wake;
            (delay_response : ((a, unit) continuation -> unit) option)
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                register (fun () ->
                    ignore
                      (schedule_at t t.clock.now Call (fun () -> continue k ()))))
        | _ -> None);
  }

let create ?(max_events = 10_000_000) ?(seed = 42) () =
  let rec dummy =
    {
      seq = -1;
      cancelled = true;
      fired = true;
      kind = Call;
      thunk = ignore;
      owner = t;
    }
  and t =
    {
      clock = { now = 0.; wake = 0. };
      heap = [||];
      times = [||];
      heap_size = 0;
      imm = [||];
      imm_head = 0;
      imm_tail = 0;
      live = 0;
      next_seq = 0;
      processed = 0;
      max_events;
      sim_rng = Random.State.make [| seed |];
      dummy;
      delay_eff = Delay t;
      handler = { Effect.Deep.effc = (fun _ -> None) };
    }
  in
  t.handler <- handler t;
  t

let run_fiber t f = Effect.Deep.try_with f () t.handler

let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled (Suspend _) -> raise Not_in_fiber

let spawn t ?name f =
  let run () =
    try run_fiber t f
    with Not_in_fiber ->
      (* Preserve the fiber's name in the backtrace-less sim world. *)
      failwith
        (Printf.sprintf "fiber %s: blocking operation escaped its fiber"
           (Option.value name ~default:"<anon>"))
  in
  ignore (schedule_at t t.clock.now Call run)

let perform_delay t =
  try Effect.perform t.delay_eff
  with Effect.Unhandled (Delay _) -> raise Not_in_fiber

let delay t d =
  if d < 0. then invalid_arg "Sim.delay: negative delay";
  if d > 0. then begin
    t.clock.wake <- t.clock.now +. d;
    perform_delay t
  end

let yield t =
  t.clock.wake <- t.clock.now;
  perform_delay t

let after t d f =
  if d < 0. then invalid_arg "Sim.after: negative delay";
  schedule_at t (t.clock.now +. d) Fiber f

let run ?until t =
  let execute ev =
    ev.fired <- true;
    t.live <- t.live - 1;
    t.processed <- t.processed + 1;
    if t.processed > t.max_events then
      raise
        (Stalled (Printf.sprintf "more than %d events processed" t.max_events));
    match ev.kind with
    | Call -> ev.thunk ()
    | Fiber -> run_fiber t ev.thunk
    | Wake ->
        (* First half of a timed wait: back into [imm] as the resume. *)
        ev.kind <- Call;
        ev.fired <- false;
        ev.seq <- t.next_seq;
        t.next_seq <- t.next_seq + 1;
        imm_add t ev;
        t.live <- t.live + 1
  in
  let stop_at time = match until with Some u -> time > u | None -> false in
  let imm_pop t =
    let ev = t.imm.(t.imm_head land (Array.length t.imm - 1)) in
    t.imm.(t.imm_head land (Array.length t.imm - 1)) <- t.dummy;
    t.imm_head <- t.imm_head + 1;
    ev
  in
  let rec loop () =
    (* Corpses are dropped without consulting [until] — they were
       already discounted from [live] when cancelled. *)
    if t.heap_size > 0 && t.heap.(0).cancelled then begin
      (heap_pop t).fired <- true;
      loop ()
    end
    else if t.imm_head < t.imm_tail then begin
      let qe = t.imm.(t.imm_head land (Array.length t.imm - 1)) in
      if qe.cancelled then begin
        (imm_pop t).fired <- true;
        loop ()
      end
      else if
        (* Both queues are live at their heads; fire the lesser
           (time, seq).  A queued immediate's time is [now] by the
           invariant above, so the heap can win only on an equal time
           with a smaller seq (the clock never passes a queued
           immediate). *)
        t.heap_size > 0
        && t.times.(0) = t.clock.now
        && t.heap.(0).seq < qe.seq
      then
        if stop_at t.times.(0) then t.clock.now <- Option.get until
        else begin
          t.clock.now <- t.times.(0);
          execute (heap_pop t);
          loop ()
        end
      else if stop_at t.clock.now then t.clock.now <- Option.get until
      else begin
        execute (imm_pop t);
        loop ()
      end
    end
    else if t.heap_size > 0 then
      if stop_at t.times.(0) then t.clock.now <- Option.get until
      else begin
        t.clock.now <- t.times.(0);
        execute (heap_pop t);
        loop ()
      end
  in
  loop ()

module Semaphore = struct
  type sem = {
    sim : t;
    mutable cnt : int;
    blocked : (unit -> unit) Queue.t;
  }

  let create sim cnt =
    if cnt < 0 then invalid_arg "Semaphore.create";
    { sim; cnt; blocked = Queue.create () }

  let p s =
    if s.cnt > 0 then s.cnt <- s.cnt - 1
    else suspend (fun resume -> Queue.add resume s.blocked)

  let v s =
    match Queue.take_opt s.blocked with
    | Some resume -> resume ()
    | None -> s.cnt <- s.cnt + 1

  let count s = s.cnt
  let waiters s = Queue.length s.blocked
end

module Ivar = struct
  type 'a state = Unset of (unit -> unit) Queue.t | Set of 'a
  type 'a ivar = { iv_sim : t; mutable state : 'a state }

  let create sim = { iv_sim = sim; state = Unset (Queue.create ()) }

  let fill iv x =
    match iv.state with
    | Set _ -> invalid_arg "Ivar.fill: already filled"
    | Unset waiters ->
        iv.state <- Set x;
        Queue.iter (fun resume -> resume ()) waiters

  let is_filled iv = match iv.state with Set _ -> true | Unset _ -> false

  let read iv =
    match iv.state with
    | Set x -> x
    | Unset waiters -> (
        suspend (fun resume -> Queue.add resume waiters);
        match iv.state with
        | Set x -> x
        | Unset _ -> assert false)

  let read_timeout iv d =
    match iv.state with
    | Set x -> Some x
    | Unset waiters ->
        suspend (fun resume ->
            let fired = ref false in
            let once () =
              if not !fired then begin
                fired := true;
                resume ()
              end
            in
            let ev = after iv.iv_sim d once in
            Queue.add
              (fun () ->
                if cancel ev then ();
                once ())
              waiters);
        (match iv.state with Set x -> Some x | Unset _ -> None)
end
