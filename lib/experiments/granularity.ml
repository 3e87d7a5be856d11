open Midrr_core
module Proxy = Midrr_http.Proxy
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Meter = Midrr_sim.Meter

type row = {
  label : string;
  rates : float array; (* counter-4 coordination *)
  rates_one_bit : float array;
  reference : float array;
  max_deviation_pct : float;
  max_deviation_one_bit_pct : float;
}

type result = row list

(* Two interfaces at 6 and 4 Mb/s; the download may use both, browsing only
   the first — max-min gives each flow 5 Mb/s (the download tops up from
   interface 2).  This is exactly the cross-cluster regime where coarse
   decisions hurt. *)
let if1_rate = Types.mbps 6.0
let if2_rate = Types.mbps 4.0

let mbps = Array.map Types.to_mbps

(* The worst flow's deviation from the window's reference, %. *)
let deviation (w : Meter.window) =
  let worst = ref 0.0 in
  Array.iteri
    (fun i r ->
      let want = w.reference.rates.(i) in
      if want > 0.0 then
        worst := Float.max !worst (100.0 *. Float.abs (r -. want) /. want))
    w.rates;
  !worst

let all _ = true

let measure_proxy ~counter_max chunk_size =
  let sched =
    Midrr.packed (Midrr.create ~base_quantum:chunk_size ~counter_max ())
  in
  let proxy = Proxy.create ~chunk_size ~rtt:0.02 ~pipeline_depth:4 ~sched () in
  Proxy.add_iface proxy 1 (Link.constant if1_rate);
  Proxy.add_iface proxy 2 (Link.constant if2_rate);
  Proxy.add_transfer proxy 0 ~weight:1.0 ~allowed:[ 1; 2 ] ();
  Proxy.add_transfer proxy 1 ~weight:1.0 ~allowed:[ 1 ] ();
  let w = Proxy.window proxy ~t0:10.0 ~t1:60.0 ~judge:all in
  Proxy.run proxy ~until:60.0;
  w ()

let measure_packets ~counter_max () =
  let sched = Midrr.packed (Midrr.create ~counter_max ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 1 (Link.constant if1_rate);
  Netsim.add_iface sim 2 (Link.constant if2_rate);
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 1; 2 ]
    (Netsim.Backlogged { pkt_size = 1400 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1 ]
    (Netsim.Backlogged { pkt_size = 1400 });
  let w = Netsim.window sim ~t0:10.0 ~t1:60.0 ~judge:all in
  Netsim.run sim ~until:60.0;
  w ()

(* [w] under counter-4 coordination, [w1] under the 1-bit flag. *)
let row label (w : Meter.window) (w1 : Meter.window) =
  {
    label;
    rates = mbps w.rates;
    rates_one_bit = mbps w1.rates;
    reference = mbps w.reference.rates;
    max_deviation_pct = deviation w;
    max_deviation_one_bit_pct = deviation w1;
  }

let run ?(chunk_sizes = [ 16384; 65536; 262144; 1048576 ]) () =
  row "packet-level (1400 B)"
    (measure_packets ~counter_max:4 ())
    (measure_packets ~counter_max:1 ())
  :: List.map
       (fun cs ->
         row
           (Printf.sprintf "HTTP chunks %d KiB" (cs / 1024))
           (measure_proxy ~counter_max:4 cs)
           (measure_proxy ~counter_max:1 cs))
       chunk_sizes

let print ppf rows =
  Format.fprintf ppf
    "@[<v>Granularity ablation (paper 6.4): deviation from max-min vs chunk \
     size@,";
  (match rows with
  | r :: _ ->
      Format.fprintf ppf "topology: if1=6, if2=4 Mb/s; reference %.3f / %.3f@,"
        r.reference.(0) r.reference.(1)
  | [] -> ());
  Format.fprintf ppf "  %-24s %21s %21s@," "" "counter-4 flags"
    "1-bit flags (paper)";
  Format.fprintf ppf "  %-24s %10s %10s %10s %10s@," "granularity" "rates"
    "dev(%)" "rates" "dev(%)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-24s %4.2f/%4.2f %10.1f %4.2f/%4.2f %10.1f@,"
        r.label r.rates.(0) r.rates.(1) r.max_deviation_pct
        r.rates_one_bit.(0) r.rates_one_bit.(1) r.max_deviation_one_bit_pct)
    rows;
  Format.fprintf ppf "@]"
