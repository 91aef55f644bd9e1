(* perfbench: run one workload for one seed and print its metrics.

     main.exe --workload null_rpc|bulk_rpc|switched_mix --seed N
              --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   metrics of a separate traced run plus a Chrome trace file in
   [trace_dir].
   The last line of standard output is the result object; the exit code
   is non-zero when any correctness check fails.  See README.md. *)

open Xkernel
open Perfbench
module W = Workload

type opts = { wl : W.name; seed : int; seconds : float; trace : bool }

(* Relative to the checkout root, where run.py starts the benchmark. *)
let trace_dir = "perfbench/out"

let usage () =
  prerr_endline
    "usage: main.exe --workload null_rpc|bulk_rpc|switched_mix --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse argv =
  let wl = ref None and seed = ref None in
  let seconds = ref 10. and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        wl := List.assoc_opt v W.all;
        if !wl = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value (float_of_string_opt v) ~default:nan;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!wl, !seed) with
  | Some wl, Some seed when !seconds > 0. ->
      { wl; seed; seconds = !seconds; trace = !trace }
  | _ -> usage ()

(* Every reference block run, for the provenance block. *)
let ref_log = ref []

let ref_block () =
  let ns = Refclock.block () in
  ref_log := ns :: !ref_log;
  ns

(* --- set-up ------------------------------------------------------------ *)

(* One set-up takes 0.1-0.3 ms on the two-host stack and ~5 ms switched,
   too short to time alone: batches of [per_batch] set-ups are timed,
   each between two reference blocks, and [setup_s] is the median batch.
   The batches run at every repetition boundary of the measured phase, so
   they sample the machine over the whole run, as the measured slices
   do, rather than in one burst of about a second. *)
let per_batch = function W.Null_rpc | W.Bulk_rpc -> 64 | W.Switched_mix -> 4
let batches_per_rep = function W.Null_rpc | W.Bulk_rpc -> 4 | W.Switched_mix -> 8

(* Reference seconds per set-up in one batch: total, then world, stack
   and warm-up.  [prev] is the reference block before the batch and
   becomes the one after it. *)
let time_setup_batch ?spans wl prev =
  let k = per_batch wl in
  let acc = Array.make 3 0. in
  let t0 = Refclock.now () in
  for _ = 1 to k do
    let rig = W.setup wl in
    Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) rig.W.phase_wall
  done;
  let t1 = Refclock.now () in
  let r = ref_block () in
  let ns_per_iter = (!prev +. r) /. 2. in
  prev := r;
  Option.iter (fun sp -> Spans.phase sp ~name:"setup batch" ~start:t0 ~stop:t1) spans;
  let per_setup x = Refclock.to_ref_s ~ns_per_iter (x /. float_of_int k) in
  (per_setup (t1 -. t0), Array.map per_setup acc)

(* --- measured phase ---------------------------------------------------- *)

(* Virtual seconds per slice: 15-40 ms of wall time on each workload. *)
let slice_dt = function
  | W.Null_rpc | W.Switched_mix -> 0.5
  | W.Bulk_rpc -> 2.0

(* What ran inside measured slices, and for how long. *)
type tally = {
  mutable calls : int;  (** calls resolved *)
  mutable wall_s : float;
  mutable ref_s : float;  (** the same time in reference seconds *)
  mutable majors : int;  (** major GC cycles *)
}

type measured = {
  setup_s : float;  (** median batch *)
  setup_phases : float array;  (** medians for world, stack, warm-up *)
  slices : int;
  reps : int;
  plain : tally;  (** repetitions without the span recorder *)
  traced : tally;  (** repetitions with it *)
  attempted : int;  (** arrivals dispatched *)
  failed : int;  (** failed + shed + wrong *)
  wrong : int;
  repeatable : bool;  (** every complete repetition matched [expect] *)
  balanced : bool;  (** every complete repetition resolved each call once *)
}

let majors () = (Gc.quick_stat ()).Gc.major_collections

let outcome_name c =
  if c = W.ok then "ok"
  else if c = W.shed then "shed"
  else if c = W.wrong then "wrong"
  else "failed"

(* The recorder's work for one resolved call of [r]. *)
let record_call buf (r : W.run) i =
  let a = r.W.arrivals.(i) in
  Spans.call buf ~id:i ~client:a.W.client ~kind:(W.kind_name a.W.kind)
    ~outcome:(outcome_name (Bytes.get r.W.outcome i))
    ~start:(Float.Array.get r.W.start i)
    ~stop:(Float.Array.get r.W.finish i)

(* Repeats the workload on fresh worlds for [seconds] of wall time,
   alternating slices of simulation with reference blocks.  Slicing
   does not change the simulated schedule, so every complete repetition
   must compute the virtual metrics of [expect].  Set-up batches run
   before each repetition.

   With [spans], every second repetition is traced: it records a span
   per call as the call resolves, its set-up phases, its slices and
   counters at slice boundaries.  Traced and untraced repetitions
   interleave, so both see the same machine; the trace file keeps the
   calls of the first complete traced repetition. *)
let measure ~seconds ?spans ~expect wl inputs =
  let t_end = Refclock.now () +. seconds in
  let tally () = { calls = 0; wall_s = 0.; ref_s = 0.; majors = 0 } in
  let plain = tally () and traced = tally () in
  let slices = ref 0 and reps = ref 0 in
  let repeatable = ref true and balanced = ref true in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let min_reps = if spans = None then 1 else 2 in
  let setups = ref [] in
  let prev = ref (ref_block ()) in
  while !reps < min_reps || Refclock.now () < t_end do
    incr reps;
    for _ = 1 to batches_per_rep wl do
      setups := time_setup_batch ?spans wl prev :: !setups
    done;
    let recorder = if !reps mod 2 = 0 then spans else None in
    let tl = if recorder = None then plain else traced in
    let t_setup = Refclock.now () in
    let rig = W.setup wl in
    let r = W.start wl rig inputs in
    let buf =
      Option.map
        (fun sp ->
          let start = ref t_setup in
          Array.iteri
            (fun i name ->
              let stop = !start +. rig.W.phase_wall.(i) in
              Spans.phase sp ~name ~start:!start ~stop;
              start := stop)
            [| "setup world"; "setup stack"; "setup warm-up" |];
          let buf = Spans.calls (Array.length inputs) in
          r.W.on_resolve <- record_call buf r;
          buf)
        recorder
    in
    let sim = rig.W.sim in
    while (not r.W.done_) && Refclock.now () < t_end do
      let c0 = r.W.resolved and g0 = majors () in
      let t0 = Refclock.now () in
      Sim.run ~until:(Sim.now sim +. slice_dt wl) sim;
      let t1 = Refclock.now () in
      let g1 = majors () in
      let rb = ref_block () in
      incr slices;
      tl.calls <- tl.calls + r.W.resolved - c0;
      tl.wall_s <- tl.wall_s +. (t1 -. t0);
      tl.ref_s <-
        tl.ref_s +. Refclock.to_ref_s ~ns_per_iter:((!prev +. rb) /. 2.) (t1 -. t0);
      tl.majors <- tl.majors + g1 - g0;
      prev := rb;
      Option.iter
        (fun sp ->
          Spans.phase sp ~name:"Sim.run slice" ~start:t0 ~stop:t1;
          Spans.counters sp ~at:t1
            [
              ("calls_resolved", float_of_int r.W.resolved);
              ("sim_events", float_of_int (Sim.processed sim));
              ("minor_words", Gc.minor_words ());
              ("ref_ns_per_iter", rb);
            ])
        recorder
    done;
    attempted := !attempted + r.W.attempted;
    Bytes.iter
      (fun c ->
        if c <> W.pending && c <> W.ok then incr failed;
        if c = W.wrong then incr wrong)
      r.W.outcome;
    let metrics s = W.virtual_metrics s ~capacity:0. in
    if r.W.done_ then begin
      if metrics (W.summarise r) <> metrics expect then repeatable := false;
      if not (W.balanced r) then balanced := false;
      match (recorder, buf) with
      | Some sp, Some buf when sp.Spans.kept = None -> Spans.keep sp buf
      | _ -> ()
    end
  done;
  let setups = Array.of_list !setups in
  {
    setup_s = Refclock.median (Array.map fst setups);
    setup_phases =
      Array.init 3 (fun i -> Refclock.median (Array.map (fun (_, p) -> p.(i)) setups));
    slices = !slices;
    reps = !reps;
    plain;
    traced;
    attempted = !attempted;
    failed = !failed;
    wrong = !wrong;
    repeatable = !repeatable;
    balanced = !balanced;
  }

(* Calls over reference seconds, every slice's wall time converted with
   the reference blocks on either side of it.  Totals count the slices
   that run a major collection, which a median over slices would skip.
   The median was also less steady: over two 10-run sets of null_rpc its
   spread between runs was 10% and 19%, against 3% and 12% for calls
   over wall time at the median reference speed. *)
let calls_per_ref_s t = float_of_int t.calls /. t.ref_s
let majors_per_kcall t = float_of_int t.majors *. 1000. /. float_of_int t.calls

(* What the benchmark keeps of the reference run. *)
type reference = {
  s : W.summary;
  top_heap_mb : float;
  majors_per_kcall : float;
  inc_hits : int;
  admitted : int;
  balanced : bool;
  layers : (string * string * float) list;  (** with [~registry] only *)
}

(* The reference run: the workload once on a fresh world, to completion.
   Every virtual-time metric, and the heap and allocation figures, come
   from here.  Only its figures are kept: the run itself, with its
   world, would stay live through the measured phase and slow the GC's
   pacing there (on null_rpc, 0.3 instead of 0.5 major cycles per 1000
   calls). *)
let reference_run ~registry wl inputs =
  let r = W.run_to_end ~registry wl inputs in
  let s = W.summarise r in
  let a = Option.get r.W.first and b = Option.get r.W.last in
  {
    s;
    top_heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.;
    majors_per_kcall =
      float_of_int (b.W.majors - a.W.majors) *. 1000. /. float_of_int s.W.completed;
    inc_hits = b.W.inc_hits - a.W.inc_hits;
    admitted = b.W.admitted - a.W.admitted;
    balanced = W.balanced r;
    layers = (if registry then Layers.of_run r s else []);
  }

(* --- correctness ------------------------------------------------------- *)

(* Table II's L.RPC-VIP null-call latency, msec, as the repository's
   experiment prints it (two decimals). *)
let table2_lrpc_vip_ms = 1.89

let violations wl ref_ m =
  let s = ref_.s in
  let check ok msg = if ok then [] else [ msg ] in
  let wrong = s.W.n_wrong + m.wrong in
  check (wrong = 0) (Printf.sprintf "%d replies carried wrong bytes" wrong)
  @ check
      (ref_.balanced && m.balanced)
      "completed + failed + shed + wrong <> calls dispatched"
  @ check m.repeatable "repetitions of one seed gave different virtual metrics"
  @
  match wl with
  | W.Null_rpc ->
      check
        (Float.abs ((s.W.p50_us /. 1000.) -. table2_lrpc_vip_ms) < 0.005)
        (Printf.sprintf
           "null-call p50 %.1f us does not round to Table II's %.2f ms"
           s.W.p50_us table2_lrpc_vip_ms)
  | W.Bulk_rpc -> []
  | W.Switched_mix ->
      check (ref_.inc_hits > 0) "no INC cache hits at the switch"
      @ check (ref_.admitted > 0) "ADMIT admitted nothing"

(* --- output ------------------------------------------------------------ *)

let metric_json l =
  Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
       l)

let print_table title l =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-40s %16.6g %s\n" name v unit)
    l

let finish o ref_ m ~metrics ~extra =
  let s = ref_.s in
  let bad = violations o.wl ref_ m in
  let provenance =
    [
      ("workload", Json.Str (W.to_string o.wl));
      ("seed", Json.Int o.seed);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ( "ref_ns_per_iter",
        Json.Float (Refclock.median (Array.of_list !ref_log)) );
      ("ref_iters_per_ref_s", Json.Float Refclock.iters_per_ref_s);
      ( "wall_calls_per_s",
        Json.Float (float_of_int m.plain.calls /. m.plain.wall_s) );
      ("wall_s", Json.Float m.plain.wall_s);
      ("slices", Json.Int m.slices);
      ("repetitions", Json.Int m.reps);
      ("setup_batches", Json.Int (m.reps * batches_per_rep o.wl));
      ("setups_per_batch", Json.Int (per_batch o.wl));
      ("gc_majors_per_kcall_measured", Json.Float (majors_per_kcall m.plain));
      ("gc_majors_per_kcall_reference", Json.Float ref_.majors_per_kcall);
      ("vlat_samples", Json.Int s.W.completed);
      ("completed", Json.Int s.W.completed);
      ("failed", Json.Int s.W.n_failed);
      ("shed", Json.Int s.W.n_shed);
      ("wrong", Json.Int s.W.n_wrong);
      ("generator_late_max_us", Json.Float s.W.late_max_us);
      ("violations", Json.Arr (List.map (fun v -> Json.Str v) bad));
    ]
    @ extra
  in
  print_table
    (if o.trace then "per-layer metrics" else "end-to-end metrics")
    metrics;
  print_endline
    (Json.to_string (Json.Obj [ ("provenance", Json.Obj provenance) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (bad = []));
            ("attempted", Json.Int (s.W.attempted + m.attempted));
            ( "failed",
              Json.Int (s.W.n_failed + s.W.n_shed + s.W.n_wrong + m.failed) );
            ("metrics", metric_json metrics);
          ]));
  List.iter
    (fun v -> prerr_endline ("perfbench: correctness violation: " ^ v))
    bad;
  exit (if bad = [] then 0 else 1)

let end_to_end o inputs =
  let ref_ = reference_run ~registry:false o.wl inputs in
  let s = ref_.s in
  let m = measure ~seconds:o.seconds ~expect:s o.wl inputs in
  let capacity = W.capacity o.wl inputs in
  let v = W.virtual_metrics s ~capacity in
  let pick name = List.find (fun (n, _, _) -> n = name) v in
  let metrics =
    [
      ("setup_s", "s", m.setup_s);
      ("calls_per_ref_s", "calls/ref_s", calls_per_ref_s m.plain);
      pick "events_per_call";
      ("minor_words_per_call", "words", s.W.minor_per_call);
      ("promoted_words_per_call", "words", s.W.promoted_per_call);
      ("top_heap_mb", "MB", ref_.top_heap_mb);
      pick "vlat_p50_us";
      pick "vlat_p99_us";
      pick "vlat_p999_us";
      pick "vgoodput_calls_per_s";
      pick "server_vcpu_us_per_call";
      pick "vcapacity_rps";
    ]
  in
  let extra =
    [
      ("fail_frac", Json.Float (W.fail_frac s));
      ("vthroughput_kbs", Json.Float s.W.payload_kbs);
      ("vcapacity_p99_limit_us", Json.Float (W.p99_limit_us o.wl));
    ]
  in
  finish o ref_ m ~metrics ~extra

let per_layer o inputs =
  let ref_ = reference_run ~registry:true o.wl inputs in
  let spans = Spans.create () in
  let m = measure ~seconds:o.seconds ~spans ~expect:ref_.s o.wl inputs in
  let traced = calls_per_ref_s m.traced and untraced = calls_per_ref_s m.plain in
  let metrics =
    Layers.microbenchmarks ()
    @ ref_.layers
    @ [
        ("setup.world_s", "s", m.setup_phases.(0));
        ("setup.stack_s", "s", m.setup_phases.(1));
        ("setup.warm_s", "s", m.setup_phases.(2));
        ("gc.major_collections_per_kcall", "1/kcall", majors_per_kcall m.plain);
        ("trace.calls_per_ref_s", "calls/ref_s", traced);
        ("trace.untraced_calls_per_ref_s", "calls/ref_s", untraced);
        ("trace.overhead_frac", "frac", 1. -. (traced /. untraced));
      ]
  in
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let path =
    Filename.concat trace_dir
      (Printf.sprintf "trace-%s-seed%d.json" (W.to_string o.wl) o.seed)
  in
  Spans.write spans path;
  let traced_calls =
    Option.fold ~none:0 ~some:(fun c -> c.Spans.n) spans.Spans.kept
  in
  finish o ref_ m ~metrics
    ~extra:
      [
        ("trace_file", Json.Str path);
        ("trace_file_calls", Json.Int traced_calls);
        ("traced_wall_s", Json.Float m.traced.wall_s);
      ]

let () =
  let o = parse Sys.argv in
  let inputs = W.inputs ~seed:o.seed o.wl in
  if o.trace then per_layer o inputs else end_to_end o inputs
