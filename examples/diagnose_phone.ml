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
module Meter = Midrr_sim.Meter

let wifi = 0
let lte = 1
let slow_3g = 2

let name f = List.nth [ "netflix"; "dropbox"; "skype"; "podcast" ] f

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
  let windows =
    List.init 6 (fun k ->
        let t0 = Float.of_int k *. 5.0 in
        Netsim.window sim ~t0 ~t1:(t0 +. 5.0) ~judge:(fun _ -> true))
  in
  Netsim.run sim ~until:30.0;
  let windows = List.map (fun w -> w ()) windows in

  Format.printf "measured rates after 30 s:@.";
  List.iter
    (fun (f, _, _) ->
      Format.printf "  %-8s %6.3f Mb/s@." (name f)
        (Netsim.avg_rate sim f ~t0:5.0 ~t1:30.0))
    specs;
  Format.printf "fairness check: %d windows, %d with violations@.@."
    (List.length windows)
    (List.length
       (List.filter (fun (w : Meter.window) -> w.violations <> []) windows));

  (* Explain every flow from the reference allocation of the last
     window's instance. *)
  let inst = (List.nth windows 5).instance in
  Format.printf "reference diagnosis (rates in bit/s):@.";
  List.iter
    (fun (e : Diagnose.explanation) ->
      Format.printf "-- %s --@.%a@." (name e.flow) Diagnose.pp e)
    (Diagnose.explain_all inst)
