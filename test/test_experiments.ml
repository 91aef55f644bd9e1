(* Pins the open-loop experiments' JSON output.  Each experiment runs at
   its default arguments and the MD5 of its serialized row list must
   match the digest recorded when the experiment was written; any change
   to scheduling, arrival order or accounting shows up here as a new
   digest.  Re-record a digest only for a deliberate output change. *)
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
