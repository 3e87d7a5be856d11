(* Beyond packets: assigning tasks to machines (paper §8).

   The same scheduling problem appears when allocating work to machines
   where some jobs may only run on certain machines.  Here "interfaces" are
   machines (capacity = work units/s), "packets" are task quanta, and the
   interface preference matrix encodes placement constraints:

   - an ML training job may only use the two GPU machines;
   - a batch-analytics job may run anywhere, with weight 2;
   - a CI job is restricted to the CPU machines (license bound).

   miDRR gives each job its weighted max-min fair share of compute without
   any job monopolizing the machines others cannot use.

   Run with: dune exec examples/datacenter.exe *)

open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link

let gpu1, gpu2, cpu1, cpu2 = (0, 1, 2, 3)
let ml_training = 0
let analytics = 1
let ci = 2

(* One work unit = 1 byte in the scheduler's accounting; machine speed in
   units/s maps to "bits/s" by the same constant, so the numbers below read
   directly as units/s. *)
let units_per_sec u = u *. 8.0

let () =
  let sched = Midrr.packed (Midrr.create ~base_quantum:100 ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim gpu1 (Link.constant (units_per_sec 100.0));
  Netsim.add_iface sim gpu2 (Link.constant (units_per_sec 100.0));
  Netsim.add_iface sim cpu1 (Link.constant (units_per_sec 40.0));
  Netsim.add_iface sim cpu2 (Link.constant (units_per_sec 40.0));

  (* Task quanta of 100 work units each; every job has plenty queued. *)
  let quantum = 100 in
  Netsim.add_flow sim ml_training ~weight:1.0 ~allowed:[ gpu1; gpu2 ]
    (Netsim.Backlogged { pkt_size = quantum });
  Netsim.add_flow sim analytics ~weight:2.0
    ~allowed:[ gpu1; gpu2; cpu1; cpu2 ]
    (Netsim.Backlogged { pkt_size = quantum });
  Netsim.add_flow sim ci ~weight:1.0 ~allowed:[ cpu1; cpu2 ]
    (Netsim.Backlogged { pkt_size = quantum });

  let judged = Netsim.window sim ~t0:20.0 ~t1:120.0 ~judge:(fun _ -> true) in
  Netsim.run sim ~until:120.0;
  let rate f = Netsim.avg_rate sim f ~t0:20.0 ~t1:120.0 /. 8.0 *. 1e6 in
  Format.printf "ml-training: %7.1f units/s (GPUs only)@." (rate ml_training);
  Format.printf "analytics:   %7.1f units/s (anywhere, weight 2)@."
    (rate analytics);
  Format.printf "ci:          %7.1f units/s (CPUs only)@." (rate ci);

  let reference = (judged ()).reference in
  Format.printf "@.water-filling reference: ml=%.1f analytics=%.1f ci=%.1f@."
    (reference.rates.(0) /. 8.0)
    (reference.rates.(1) /. 8.0)
    (reference.rates.(2) /. 8.0)
