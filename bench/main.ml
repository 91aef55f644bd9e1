(* Benchmark harness: regenerates every table and figure of the paper.

   Tables I-III and the section 4.3 experiment are virtual-time
   measurements from the simulator (the numbers to compare against the
   paper); the final section uses Bechamel for wall-clock
   microbenchmarks of the infrastructure itself (one procedure call per
   layer crossing, message push/pop, header codecs). *)

open Xkernel
module E = Rpc.Experiments
module World = Netproto.World
module Stacks = Rpc.Stacks
module Load = Rpc.Load

let pr = Printf.printf
let section title = pr "\n=== %s ===\n%!" title

(* --- wall-clock microbenchmarks ------------------------------------------ *)

let microbench () =
  section "Wall-clock microbenchmarks (Bechamel; real ns, not simulated)";
  let open Bechamel in
  let open Toolkit in
  (* A chain of [n] trivial protocols on a zero-cost machine: the real
     price of one layer crossing in this infrastructure. *)
  let make_chain n =
    let sim = Sim.create () in
    let host =
      Host.create sim ~name:"bench" ~ip:(Addr.Ip.v 10 9 9 9)
        ~eth:(Addr.Eth.v 42) ~profile:Machine.zero_cost ()
    in
    let hits = ref 0 in
    let bottom_proto = Proto.create ~host ~name:"bottom" () in
    let bottom =
      Proto.make_session bottom_proto
        {
          Proto.push = (fun _ -> incr hits);
          pop = (fun _ -> ());
          s_control = (fun _ -> Control.Unsupported);
          close = (fun () -> ());
        }
    in
    let rec wrap k sess =
      if k = 0 then sess
      else begin
        let p = Proto.create ~host ~name:(Printf.sprintf "layer%d" k) () in
        let s =
          Proto.make_session p
            {
              Proto.push = (fun msg -> Proto.push sess msg);
              pop = (fun _ -> ());
              s_control = (fun _ -> Control.Unsupported);
              close = (fun () -> ());
            }
        in
        wrap (k - 1) s
      end
    in
    wrap n bottom
  in
  let crossing n =
    let top = make_chain n in
    let msg = Msg.of_string "x" in
    Test.make ~name:(Printf.sprintf "push through %2d layers" n)
      (Staged.stage (fun () -> Proto.push top msg))
  in
  let msg_ops =
    let m = Msg.fill 1024 'a' in
    [
      Test.make ~name:"msg push+pop 36B header"
        (Staged.stage (fun () ->
             match Msg.pop (Msg.push m (String.make 36 'h')) 36 with
             | Some _ -> ()
             | None -> assert false));
      Test.make ~name:"msg split+append 1KB"
        (Staged.stage (fun () -> ignore (Msg.append (fst (Msg.split m 512)) m)));
      Test.make ~name:"SPRITE_HDR encode+decode"
        (Staged.stage
           (let h =
              {
                Rpc.Wire_fmt.Sprite.flags = 1;
                clnt_host = Addr.Ip.v 10 0 0 1;
                srvr_host = Addr.Ip.v 10 0 0 2;
                channel = 1;
                srvr_process = 0;
                sequence_num = 7;
                num_frags = 1;
                frag_mask = 1;
                command = 3;
                boot_id = 1;
                data1_sz = 0;
                data2_sz = 0;
                data1_off = 0;
                data2_off = 0;
              }
            in
            fun () ->
              ignore
                (Rpc.Wire_fmt.Sprite.decode (Rpc.Wire_fmt.Sprite.encode h))));
      Test.make ~name:"IP checksum over 20B"
        (Staged.stage
           (let hdr = String.make 20 '\x42' in
            fun () -> ignore (Codec.ip_checksum hdr)));
    ]
  in
  let tests =
    Test.make_grouped ~name:"xkernel"
      ([ crossing 1; crossing 5; crossing 10 ] @ msg_ops)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (name, ns) -> pr "%-40s %10.1f ns\n" name ns) rows;
  pr
    "\n(A layer crossing adds only a handful of ns of real work - the\n\
    \ x-kernel claim that a layer costs one procedure call.)\n"

(* --- harness throughput benchmark ---------------------------------------- *)

(* How fast is the simulator itself?  A fan-in world (4 client hosts
   into 1 server, the capacity-sweep topology) runs a closed-loop
   million-call sweep and we report *wall-clock* simulated-calls/sec
   and events/sec — the numbers that decide whether K-server x
   M-client x 10^6-call sweeps fit in CI.  Tracked across PRs in
   BENCH_harness.json the same way the paper tables are. *)

let harness ~calls ~out ~baseline () =
  section
    (Printf.sprintf
       "Harness throughput: %d-call closed-loop fan-in (wall clock)" calls);
  (* 2 fibers per client host on the fixed-RTO stack, so the workload
     is identical before and after any RTO-policy change.  It is not
     clear of timeouts: 66 calls fail both at 20,000 and at 10^6
     calls, for a reason not yet explained; the rest measure the
     per-call event path. *)
  let clients = 4 and fibers = 8 in
  let per_fiber = max 1 (calls / fibers) in
  (* a layered null call is a few hundred sim events (charges, timers,
     fiber switches); leave generous headroom *)
  let f =
    World.create_fanout ~max_events:(1000 * calls) ~clients ~servers:1 ()
  in
  let fan =
    Stacks.build { Stacks.default with adaptive = false } (Stacks.Shared f)
  in
  let sim = f.World.fo.World.sim in
  let ev0 = Sim.processed sim in
  let mw0 = Gc.minor_words () in
  let w0 = Unix.gettimeofday () in
  let r = Load.run_closed ~fibers ~calls:per_fiber f fan in
  let wall = Unix.gettimeofday () -. w0 in
  let events = Sim.processed sim - ev0 in
  let completed = r.Load.completed in
  let words_per_call =
    (Gc.minor_words () -. mw0) /. float_of_int completed
  in
  let calls_per_sec = float_of_int completed /. wall in
  let events_per_sec = float_of_int events /. wall in
  pr "%-28s %12d\n" "calls completed" completed;
  pr "%-28s %12d\n" "simulator events" events;
  pr "%-28s %12.2f s\n" "wall clock" wall;
  pr "%-28s %12.2f s\n" "simulated time" r.Load.elapsed_s;
  pr "%-28s %12.0f\n" "calls/sec (wall)" calls_per_sec;
  pr "%-28s %12.0f\n" "events/sec (wall)" events_per_sec;
  pr "%-28s %12.0f\n" "minor words/call" words_per_call;
  let fields =
    [
      ("bench", Json.Str "harness");
      ("config", Json.Str fan.Stacks.fos_name);
      ("mode", Json.Str "closed");
      ("clients", Json.Int clients);
      ("fibers", Json.Int fibers);
      ("calls", Json.Int (per_fiber * fibers));
      ("completed", Json.Int completed);
      ("failed", Json.Int r.Load.failed);
      ("events", Json.Int events);
      ("events_per_call", Json.Float (float_of_int events /. float_of_int completed));
      ("sim_elapsed_s", Json.Float r.Load.elapsed_s);
      ("wall_s", Json.Float wall);
      ("calls_per_sec", Json.Float calls_per_sec);
      ("events_per_sec", Json.Float events_per_sec);
      ("minor_words_per_call", Json.Float words_per_call);
    ]
  in
  (* [--harness-baseline FILE] embeds a pre-optimization run (same
     schema) so the committed BENCH_harness.json records the speedup. *)
  let fields =
    match baseline with
    | None -> fields
    | Some path -> (
        match Json.parse_file path with
        | Ok (Json.Obj b) ->
            let bcps =
              match List.assoc_opt "calls_per_sec" b with
              | Some (Json.Float v) -> v
              | Some (Json.Int v) -> float_of_int v
              | _ -> 0.
            in
            fields
            @ [
                ("baseline", Json.Obj b);
                ( "speedup",
                  Json.Float (if bcps > 0. then calls_per_sec /. bcps else 0.)
                );
              ]
        | Ok _ | Error _ ->
            Printf.eprintf "bench: cannot read baseline %s\n" path;
            exit 1)
  in
  let doc = Json.Obj fields in
  (match out with
  | None -> ()
  | Some path -> (
      match Json.write_file path doc with
      | () -> pr "wrote harness benchmark to %s\n" path
      | exception Sys_error e ->
          Printf.eprintf "bench: cannot write %s: %s\n" path e;
          exit 1));
  doc

(* Hand-parsed flags: [--json FILE] writes every experiment's rows plus
   the full stats-registry dump; [--harness-calls N], [--harness-out
   FILE], [--harness-baseline FILE] and [--harness-only] control the
   harness throughput benchmark. *)
type opts = {
  o_json : string option;
  o_harness_calls : int;
  o_harness_out : string option;
  o_harness_baseline : string option;
  o_harness_only : bool;
}

let parse_opts () =
  let o =
    ref
      {
        o_json = None;
        o_harness_calls = 1_000_000;
        o_harness_out = None;
        o_harness_baseline = None;
        o_harness_only = false;
      }
  in
  let argv = Sys.argv in
  let value i flag =
    if i + 1 < Array.length argv then argv.(i + 1)
    else begin
      Printf.eprintf "bench: %s needs an argument\n" flag;
      exit 2
    end
  in
  Array.iteri
    (fun i a ->
      match a with
      | "--json" -> o := { !o with o_json = Some (value i a) }
      | "--harness-calls" ->
          o := { !o with o_harness_calls = int_of_string (value i a) }
      | "--harness-out" -> o := { !o with o_harness_out = Some (value i a) }
      | "--harness-baseline" ->
          o := { !o with o_harness_baseline = Some (value i a) }
      | "--harness-only" -> o := { !o with o_harness_only = true }
      | _ -> ())
    argv;
  !o

let () =
  let opts = parse_opts () in
  if opts.o_harness_only then begin
    ignore
      (harness ~calls:opts.o_harness_calls ~out:opts.o_harness_out
         ~baseline:opts.o_harness_baseline ());
    exit 0
  end;
  pr "RPC in the x-Kernel: reproduction benchmarks\n";
  pr "(virtual-time msec from the calibrated simulator; see DESIGN.md)\n";
  let sections =
    [
      ("intro", E.intro ());
      ("table1", E.table1 ());
      ("table2", E.table2 ());
      ("table3", E.table3 ());
      ("removal", E.removal ());
      ( "figures",
        E.figures
          ~fig2_extra:(fun ~host ~lower ->
            Psync.proto (Psync.create ~host ~lower ()))
          () );
      ("ablation", E.ablation ());
      ("cpu_note", E.cpu_note ());
      ("loss_sweep", E.loss_sweep ());
      ("capacity", E.capacity ());
      ("failover", E.failover ());
      ("rebalance", E.rebalance ());
      ("overload", E.overload ());
      ("inc", E.inc ());
      ("shardscale", E.shardscale ());
      ( "harness",
        harness
          ~calls:opts.o_harness_calls
          ~out:opts.o_harness_out ~baseline:opts.o_harness_baseline () );
    ]
  in
  microbench ();
  match opts.o_json with
  | None -> ()
  | Some path -> (
      let doc =
        Json.Obj
          [ ("experiments", Json.Obj sections); ("stats", Stats.json ()) ]
      in
      match Json.write_file path doc with
      | () -> pr "\nwrote JSON results to %s\n" path
      | exception Sys_error e ->
          Printf.eprintf "bench: cannot write JSON: %s\n" e;
          exit 1)
