open Midrr_core
module Netsim = Midrr_sim.Netsim
module Proxy = Midrr_http.Proxy
module Meter = Midrr_sim.Meter

type phase = {
  label : string;
  reference : float array;
  in_network : float array;
  client_http : float array;
}

type result = {
  phases : phase list;
  mean_err_in_network : float;
  mean_err_client_http : float;
}

(* Fig. 10's flows, run over its link schedule and judged over its phase
   windows. *)
let labels = [ "phase 0-11s"; "phase 11-18s"; "phase 18-29s"; "phase 29-45s" ]
let horizon = 45.0
let allowed_of = function 0 -> [ 1 ] | 1 -> [ 1; 2 ] | _ -> [ 2 ]

let judged window run =
  let windows =
    List.map
      (fun (t0, t1) -> window ~t0 ~t1 ~judge:(fun _ -> true))
      Fig10.windows
  in
  run ~until:horizon;
  List.map (fun w -> w ()) windows

(* Fig. 4: the in-network proxy sees individual packets and runs miDRR
   directly in front of the two last-mile links. *)
let run_in_network () =
  let sched = Midrr.packed (Midrr.create ~counter_max:4 ()) in
  let sim = Netsim.create ~sched () in
  List.iter (fun (j, l) -> Netsim.add_iface sim j l) Fig10.links;
  for f = 0 to 2 do
    Netsim.add_flow sim f ~weight:1.0 ~allowed:(allowed_of f)
      (Netsim.Backlogged { pkt_size = 1400 })
  done;
  judged (Netsim.window sim) (Netsim.run sim)

(* Fig. 5: the client proxy schedules byte-range chunks with a request
   round-trip, as in the Fig. 10 reproduction. *)
let run_client_http () =
  let sched = Midrr.packed (Midrr.create ~base_quantum:65536 ~counter_max:4 ()) in
  let proxy =
    Proxy.create ~chunk_size:65536 ~pipeline_depth:4 ~rtt:0.03 ~sched ()
  in
  List.iter (fun (j, l) -> Proxy.add_iface proxy j l) Fig10.links;
  for f = 0 to 2 do
    Proxy.add_transfer proxy f ~weight:1.0 ~allowed:(allowed_of f) ()
  done;
  judged (Proxy.window proxy) (Proxy.run proxy)

(* Each flow's error against its window's reference, %, averaged over
   every window. *)
let mean_err windows =
  let total = ref 0.0 and n = ref 0 in
  List.iter
    (fun (w : Meter.window) ->
      Array.iteri
        (fun i v ->
          let want = w.reference.rates.(i) in
          if want > 0.0 then begin
            total := !total +. (100.0 *. Float.abs (v -. want) /. want);
            incr n
          end)
        w.rates)
    windows;
  !total /. Float.of_int (Stdlib.max 1 !n)

let mbps = Array.map Types.to_mbps

let run () =
  let in_network = run_in_network () in
  let client_http = run_client_http () in
  let phases =
    List.map2
      (fun label ((inn : Meter.window), (http : Meter.window)) ->
        {
          label;
          reference = mbps inn.reference.rates;
          in_network = mbps inn.rates;
          client_http = mbps http.rates;
        })
      labels
      (List.combine in_network client_http)
  in
  {
    phases;
    mean_err_in_network = mean_err in_network;
    mean_err_client_http = mean_err client_http;
  }

let print ppf r =
  Format.fprintf ppf
    "@[<v>Inbound scheduling: in-network ideal (Fig. 4) vs client HTTP \
     proxy (Fig. 5)@,";
  Format.fprintf ppf "  %-14s %-9s %23s %23s@," "" "" "in-network (pkts)"
    "client HTTP (chunks)";
  Format.fprintf ppf "  %-14s %-9s %23s %23s@," "phase" "flow ref"
    "a / b / c" "a / b / c";
  List.iter
    (fun p ->
      Format.fprintf ppf
        "  %-14s %.1f/%.1f/%.1f   %6.2f /%6.2f /%6.2f   %6.2f /%6.2f /%6.2f@,"
        p.label p.reference.(0) p.reference.(1) p.reference.(2)
        p.in_network.(0) p.in_network.(1) p.in_network.(2)
        p.client_http.(0) p.client_http.(1) p.client_http.(2))
    r.phases;
  Format.fprintf ppf
    "mean relative error vs reference: in-network %.2f%%, client HTTP \
     %.2f%%@,"
    r.mean_err_in_network r.mean_err_client_http;
  Format.fprintf ppf "@]"
