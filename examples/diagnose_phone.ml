(* Answering "why is this app slow?" with the diagnostics toolkit.

   A phone with three interfaces runs four apps with preferences.  We ask
   the reference solver to explain each flow's binding constraint and the
   counterfactual gain from relaxing its interface preference, after
   checking the live system's rate clustering window by window.

   Run with: dune exec examples/diagnose_phone.exe *)

open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Diagnose = Midrr_flownet.Diagnose
module Cluster = Midrr_flownet.Cluster

let wifi = 0
let lte = 1
let slow_3g = 2

let names = [| "netflix"; "dropbox"; "skype"; "podcast" |]

let () =
  let sched = Midrr.packed (Midrr.create ~counter_max:4 ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim wifi (Link.constant (Types.mbps 8.0));
  Netsim.add_iface sim lte (Link.constant (Types.mbps 5.0));
  Netsim.add_iface sim slow_3g (Link.constant (Types.mbps 1.0));
  let specs =
    [
      (0, 2.0, [ wifi ]);
      (1, 1.0, [ wifi ]);
      (2, 1.0, [ slow_3g ]);
      (3, 1.0, [ wifi; lte ]);
    ]
  in
  List.iter
    (fun (f, weight, allowed) ->
      Netsim.add_flow sim f ~weight ~allowed
        (Netsim.Backlogged { pkt_size = 1300 }))
    specs;

  (* Check Theorem 2's rate-clustering conditions on every 5 s window
     while the scenario runs, from the measured per-interface rates. *)
  let flows = List.map (fun (f, _, _) -> f) specs
  and ifaces = [ wifi; lte; slow_3g ] in
  let snap = ref None and windows = ref 0 and violating = ref 0 in
  for k = 0 to 6 do
    Netsim.at sim (Float.of_int k *. 5.0) (fun () ->
        Option.iter
          (fun snap ->
            let share = Netsim.share_since sim snap ~flows ~ifaces in
            let rates = Array.map (Array.fold_left ( +. ) 0.0) share in
            let inst = Netsim.instance_of sim ~flows ~ifaces in
            incr windows;
            if Cluster.check ~tol:0.03 inst ~share ~rates <> [] then
              incr violating)
          !snap;
        snap := Some (Netsim.snapshot sim))
  done;
  Netsim.run sim ~until:30.0;

  Format.printf "measured rates after 30 s:@.";
  List.iter
    (fun (f, _, _) ->
      Format.printf "  %-8s %6.3f Mb/s@." names.(f)
        (Netsim.avg_rate sim f ~t0:5.0 ~t1:30.0))
    specs;
  Format.printf "fairness check: %d windows, %d with violations@.@."
    !windows !violating;

  (* Explain every flow from the reference allocation. *)
  let inst = Netsim.instance_of sim ~flows ~ifaces in
  Format.printf "reference diagnosis (rates in bit/s):@.";
  List.iter
    (fun (e : Diagnose.explanation) ->
      Format.printf "-- %s --@.%a@." names.(e.flow) Diagnose.pp e)
    (Diagnose.explain_all inst)
