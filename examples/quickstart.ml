(* Quickstart: the paper's canonical example (Fig. 1(c)).

   Two 1 Mb/s interfaces.  Flow a is willing to use both; flow b only
   interface 2.  Per-interface fair queueing would give a 1.5 Mb/s and b
   0.5 Mb/s; miDRR finds the max-min allocation of 1 Mb/s each.

   Run with: dune exec examples/quickstart.exe *)

open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link

let () =
  (* 1. Create the scheduler and wrap it for the simulator. *)
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in

  (* 2. Bring up two 1 Mb/s interfaces. *)
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 1.0));
  Netsim.add_iface sim 2 (Link.constant (Types.mbps 1.0));

  (* 3. Register flows with their user preferences: equal rate preference
     (weight 1.0), but flow b may only use interface 2. *)
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 1; 2 ]
    (Netsim.Backlogged { pkt_size = 1200 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 2 ]
    (Netsim.Backlogged { pkt_size = 1200 });

  (* 4. Judge the steady state from 5 s on against the offline
     water-filling reference, then run for 30 simulated seconds. *)
  let judged = Netsim.window sim ~t0:5.0 ~t1:30.0 ~judge:(fun _ -> true) in
  Netsim.run sim ~until:30.0;
  let rate f = Netsim.avg_rate sim f ~t0:5.0 ~t1:30.0 in
  Format.printf "flow a (interfaces 1,2): %.3f Mb/s@." (rate 0);
  Format.printf "flow b (interface 2):    %.3f Mb/s@." (rate 1);

  (* 5. Compare with the reference. *)
  let reference = (judged ()).reference in
  Format.printf "reference max-min:       a=%.3f b=%.3f Mb/s@."
    (Types.to_mbps reference.rates.(0))
    (Types.to_mbps reference.rates.(1))
