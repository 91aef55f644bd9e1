(* The benchmark's own checks: every metric read in virtual time is a
   pure function of the seed, however the simulation is sliced, and the
   workloads pass their correctness gate.  Runs use the first few
   hundred of the benchmark's inputs so the suite stays fast; the
   properties do not depend on run length.  The capacity search runs its
   full bisection, with probes as long as those inputs. *)

open Xkernel
open Perfbench
module W = Workload

let calls = function W.Null_rpc | W.Bulk_rpc -> 300 | W.Switched_mix -> 800
let inputs wl ~seed = Array.sub (W.inputs ~seed wl) 0 (calls wl)

(* Every deterministic metric, printed with all its digits. *)
let fingerprint wl ~seed ~slice =
  let inputs = inputs wl ~seed in
  let r =
    match slice with
    | None -> W.run_to_end ~registry:true wl inputs
    | Some dt ->
        let rig = W.setup wl in
        let r = W.start ~registry:true wl rig inputs in
        while not r.W.done_ do
          Sim.run ~until:(Sim.now rig.W.sim +. dt) rig.W.sim
        done;
        r
  in
  let s = W.summarise r in
  let capacity = W.capacity wl inputs in
  let show (n, u, v) = Printf.sprintf "%s=%.17g %s" n v u in
  (List.map show (W.virtual_metrics s ~capacity), s)

let names l = List.map (fun x -> List.hd (String.split_on_char '=' x)) l

let same_seed_identical wl () =
  let a, _ = fingerprint wl ~seed:7 ~slice:None in
  let b, _ = fingerprint wl ~seed:7 ~slice:None in
  Alcotest.(check (list string)) "same seed, same metrics" a b

let slicing_invisible wl () =
  let a, _ = fingerprint wl ~seed:7 ~slice:None in
  let b, _ = fingerprint wl ~seed:7 ~slice:(Some 0.037) in
  Alcotest.(check (list string)) "sliced run, same metrics" a b

let other_seed wl () =
  let a, _ = fingerprint wl ~seed:7 ~slice:None in
  let b, _ = fingerprint wl ~seed:8 ~slice:None in
  Alcotest.(check (list string)) "same metric names" (names a) (names b);
  let schedule seed =
    List.map
      (fun x -> (x.W.unit_due, Msg.length x.W.body, x.W.kind))
      (Array.to_list (inputs wl ~seed))
  in
  if wl <> W.Null_rpc then
    Alcotest.(check bool)
      "another seed, another schedule" false
      (schedule 7 = schedule 8)

let gate wl () =
  let _, s = fingerprint wl ~seed:7 ~slice:None in
  Alcotest.(check int) "no wrong bytes" 0 s.W.n_wrong;
  Alcotest.(check int) "outcomes add up" s.W.attempted
    (s.W.completed + s.W.n_failed + s.W.n_shed + s.W.n_wrong);
  Alcotest.(check int) "nothing failed or shed" 0 (s.W.n_failed + s.W.n_shed);
  if wl = W.Null_rpc then
    Alcotest.(check (float 0.005))
      "Table II L.RPC-VIP null call, ms" 1.89 (s.W.p50_us /. 1000.)

let () =
  Alcotest.run "perfbench"
    (List.map
       (fun (name, wl) ->
         ( name,
           [
             Alcotest.test_case "same seed, identical metrics" `Quick
               (same_seed_identical wl);
             Alcotest.test_case "slicing does not change metrics" `Quick
               (slicing_invisible wl);
             Alcotest.test_case "second seed, same metric names" `Quick
               (other_seed wl);
             Alcotest.test_case "correctness gate" `Quick (gate wl);
           ] ))
       W.all)
