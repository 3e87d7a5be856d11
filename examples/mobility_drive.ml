(* A commute scenario: apps with preferences on a phone driving through
   the city.

   WiFi coverage comes and goes (hotspot hopping) while LTE quality drifts
   with distance from the tower.  Each app states its preferences: music
   must stay on cellular for persistence, with twice the weight of the
   rest, the podcast sync is restricted to (free) WiFi, and browsing may
   use anything.

   Run with: dune exec examples/mobility_drive.exe *)

open Midrr_core
module Netsim = Midrr_sim.Netsim
module Mobility = Midrr_sim.Mobility

let wifi = 1
let cellular = 2
let music = 0
let podcasts = 1
let browser = 2

let () =
  let horizon = 300.0 in
  let sched = Midrr.packed (Midrr.create ~counter_max:4 ()) in
  let sim = Netsim.create ~sched () in
  (* WiFi: in and out of hotspot range, 20 Mb/s when covered. *)
  Netsim.add_iface sim wifi
    (Mobility.coverage ~seed:4 ~rate_in:(Types.mbps 20.0) ~on_mean:30.0
       ~off_mean:45.0 ~horizon ());
  (* LTE: always there, drifting around 6 Mb/s. *)
  Netsim.add_iface sim cellular
    (Mobility.gauss_markov ~seed:5 ~mean:(Types.mbps 6.0)
       ~sigma:(Types.mbps 1.5) ~memory:0.95 ~step:1.0 ~horizon ());

  (* Each app's weight (φ) and interface preference (Π). *)
  Netsim.add_flow sim music ~weight:2.0 ~allowed:[ cellular ]
    (Netsim.Cbr { rate = Types.kbps 320.0; pkt_size = 800; stop = None });
  Netsim.add_flow sim podcasts ~weight:1.0 ~allowed:[ wifi ]
    (Netsim.Backlogged { pkt_size = 1400 });
  Netsim.add_flow sim browser ~weight:1.0 ~allowed:[ wifi; cellular ]
    (Netsim.On_off
       {
         rate = Types.mbps 12.0;
         pkt_size = 1200;
         on_mean = 8.0;
         off_mean = 15.0;
         stop = None;
       });

  Netsim.run sim ~until:horizon;
  let avg f = Netsim.avg_rate sim f ~t0:10.0 ~t1:horizon in
  Format.printf "over %.0f s of driving:@." horizon;
  Format.printf "  music (cellular only):   %6.3f Mb/s  — never dropped@."
    (avg music);
  Format.printf "  podcasts (wifi only):    %6.3f Mb/s  — bursts in hotspots@."
    (avg podcasts);
  Format.printf "  browser (anything):      %6.3f Mb/s@." (avg browser);
  Format.printf "@.podcast bytes by interface: wifi=%d cellular=%d@."
    (Netsim.served_cell sim ~flow:podcasts ~iface:wifi)
    (Netsim.served_cell sim ~flow:podcasts ~iface:cellular);
  Format.printf "music bytes by interface:   wifi=%d cellular=%d@."
    (Netsim.served_cell sim ~flow:music ~iface:wifi)
    (Netsim.served_cell sim ~flow:music ~iface:cellular)
