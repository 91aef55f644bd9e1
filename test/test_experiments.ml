(* Pins the experiments' JSON output: the paper tables and the
   open-loop experiments.  Each experiment runs at its default arguments
   and the MD5 of its serialized row list must match the digest recorded
   when the experiment was written; any change to scheduling, arrival
   order, stack wiring or accounting shows up here as a new digest.
   Re-record a digest only for a deliberate output change.  [figures]
   returns [Null] and is not pinned. *)
open Xkernel
module Experiments = Rpc.Experiments

let pinned name run expected () =
  let got = Digest.to_hex (Digest.string (Json.to_string (run ()))) in
  Tutil.check_str (name ^ " JSON digest") expected got

let () =
  Alcotest.run "experiments"
    [
      ( "digest",
        List.map
          (fun (name, expected, run) ->
            Alcotest.test_case name `Quick (pinned name run expected))
          [
            ("intro", "a561a02be7bb816a39440a630481d9e3",
             fun () -> Experiments.intro ());
            ("table1", "7596e313f58796213aaf34a210340be0",
             fun () -> Experiments.table1 ());
            ("table2", "3a218dfce4b45e3aa8d63a93ccce4fc5",
             fun () -> Experiments.table2 ());
            ("table3", "0879b226000f1f677b810235c133dcca",
             fun () -> Experiments.table3 ());
            ("removal", "d7b569bc108336e4b080b91d4d1f08d7",
             fun () -> Experiments.removal ());
            ("ablation", "81d737b9cc259574c540cc259a1895a2",
             fun () -> Experiments.ablation ());
            ("cpu_note", "014e990b31ff7e954ca16d63c3d2c787",
             fun () -> Experiments.cpu_note ());
            ("loss_sweep", "e570772e877ddff8c69afd0172cb76e4",
             fun () -> Experiments.loss_sweep ());
            ("failover", "a5ec254998ee193769a5a18818508d49",
             fun () -> Experiments.failover ());
            ("rebalance", "a3bf53aa4577fc13060ddb4a374383b1",
             fun () -> Experiments.rebalance ());
            ("overload", "e027addd8b8a198448e77f5acd0ebb7b",
             fun () -> Experiments.overload ());
            ("inc", "4990534386c25affc147f18da7af75e5",
             fun () -> Experiments.inc ());
            ("shardscale", "78d70f704ab053949448f2a21ebb8093",
             fun () -> Experiments.shardscale ());
            ("capacity", "8df6677d3bb71a1e5ce5b966c3faea47",
             fun () -> Experiments.capacity ());
          ] );
    ]
