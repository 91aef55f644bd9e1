(* The benchmark's span recorder: kept in memory during a traced run and
   written once at the end as Chrome trace-event JSON, which Perfetto
   (ui.perfetto.dev) and chrome://tracing open directly.

   Two processes in the trace keep the two clocks apart: pid 1 holds the
   calls on the simulated (virtual) clock, one async span per call;
   pid 2 holds the benchmark's own wall-clock phases, slices and counter
   snapshots.

   Call spans are recorded while the simulation runs, one per resolved
   call, into a {!calls} buffer allocated before the repetition starts:
   a few array stores per call.  They are turned into JSON only when the
   trace is written. *)

open Xkernel

type calls = {
  ids : int array;
  clients : int array;
  kinds : string array;
  outcomes : string array;
  starts : Float.Array.t;  (** virtual seconds *)
  stops : Float.Array.t;
  mutable n : int;
}

type t = { t0 : float; mutable events : Json.t list; mutable kept : calls option }

let create () = { t0 = Refclock.now (); events = []; kept = None }
let add t e = t.events <- e :: t.events
let virtual_pid = 1
let wall_pid = 2
let wall_us t at = (at -. t.t0) *. 1e6

(** A wall-clock span from [start] to [stop] (both {!Refclock.now}). *)
let phase t ~name ~start ~stop =
  add t
    (Json.Obj
       [
         ("name", Json.Str name);
         ("ph", Json.Str "X");
         ("pid", Json.Int wall_pid);
         ("tid", Json.Int 0);
         ("ts", Json.Float (wall_us t start));
         ("dur", Json.Float ((stop -. start) *. 1e6));
       ])

(** Counter values at wall time [at]. *)
let counters t ~at values =
  add t
    (Json.Obj
       [
         ("name", Json.Str "counters");
         ("ph", Json.Str "C");
         ("pid", Json.Int wall_pid);
         ("ts", Json.Float (wall_us t at));
         ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) values));
       ])

(** A buffer for the spans of [n] calls. *)
let calls n =
  {
    ids = Array.make n 0;
    clients = Array.make n 0;
    kinds = Array.make n "";
    outcomes = Array.make n "";
    starts = Float.Array.make n 0.;
    stops = Float.Array.make n 0.;
    n = 0;
  }

(** Records one call on the virtual clock, from [start] to [stop]
    virtual seconds. *)
let call c ~id ~client ~kind ~outcome ~start ~stop =
  let k = c.n in
  c.ids.(k) <- id;
  c.clients.(k) <- client;
  c.kinds.(k) <- kind;
  c.outcomes.(k) <- outcome;
  Float.Array.set c.starts k start;
  Float.Array.set c.stops k stop;
  c.n <- k + 1

(** Makes [c] the call spans the trace file holds. *)
let keep t c = t.kept <- Some c

(* Calls overlap under open-loop load, so each is an async span keyed by
   its call id. *)
let call_events c =
  let ev k ph ts args =
    Json.Obj
      ([
         ("name", Json.Str c.kinds.(k));
         ("cat", Json.Str "call");
         ("ph", Json.Str ph);
         ("id", Json.Int c.ids.(k));
         ("pid", Json.Int virtual_pid);
         ("tid", Json.Int c.clients.(k));
         ("ts", Json.Float (ts *. 1e6));
       ]
      @ args)
  in
  List.concat_map
    (fun k ->
      [
        ev k "b" (Float.Array.get c.starts k)
          [
            ( "args",
              Json.Obj
                [ ("call", Json.Int c.ids.(k)); ("outcome", Json.Str c.outcomes.(k)) ]
            );
          ];
        ev k "e" (Float.Array.get c.stops k) [];
      ])
    (List.init c.n Fun.id)

let write t path =
  let meta pid name =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int pid);
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  Json.write_file path
    (Json.Obj
       [
         ( "traceEvents",
           Json.Arr
             (meta virtual_pid "calls (virtual time)"
             :: meta wall_pid "benchmark (wall clock)"
             :: List.rev_append t.events
                  (Option.fold ~none:[] ~some:call_events t.kept)) );
         ("displayTimeUnit", Json.Str "ms");
       ])
