open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link

type row = {
  n_ifaces : int;
  efficiency : float;
  aggregator_rate : float;
  aggregator_reference : float;
  min_utilization : float;
}

type result = row list

(* Heterogeneous line rates: 2, 3, 4, ... Mb/s cycling. *)
let rate_of j = Types.mbps (2.0 +. Float.of_int (j mod 5))

let horizon = 30.0
let warmup = 5.0

let run_one n_ifaces =
  let sched = Midrr.packed (Midrr.create ~counter_max:4 ()) in
  let sim = Netsim.create ~sched () in
  let ifaces = List.init n_ifaces Fun.id in
  List.iter (fun j -> Netsim.add_iface sim j (Link.constant (rate_of j))) ifaces;
  (* Flow 0 aggregates everything; each interface also carries one local
     single-homed flow. *)
  let aggregator = 1000 in
  Netsim.add_flow sim aggregator ~weight:1.0 ~allowed:ifaces
    (Netsim.Backlogged { pkt_size = 1400 });
  List.iter
    (fun j ->
      Netsim.add_flow sim j ~weight:1.0 ~allowed:[ j ]
        (Netsim.Backlogged { pkt_size = 1400 }))
    ifaces;
  let w = Netsim.window sim ~t0:warmup ~t1:horizon ~judge:(fun _ -> true) in
  Netsim.run sim ~until:horizon;
  let w = w () in
  (* Interface j carried column j of the share matrix. *)
  let carried j = Array.fold_left (fun acc r -> acc +. r.(j)) 0.0 w.share in
  let total f = List.fold_left (fun acc j -> acc +. f j) 0.0 ifaces in
  let utilization j = carried j /. rate_of j in
  {
    n_ifaces;
    efficiency = total carried /. total rate_of;
    (* The aggregator, the largest id, is the last judged flow. *)
    aggregator_rate = Types.to_mbps w.rates.(n_ifaces);
    aggregator_reference = Types.to_mbps w.reference.rates.(n_ifaces);
    min_utilization =
      List.fold_left Float.min 1.0 (List.map utilization ifaces);
  }

let run ?(iface_counts = [ 1; 2; 4; 8; 16 ]) () = List.map run_one iface_counts

let print ppf rows =
  Format.fprintf ppf
    "@[<v>Aggregation study: one flow over 1-16 interfaces plus per-link \
     local flows@,";
  Format.fprintf ppf "  %8s %12s %14s %14s %10s@," "ifaces" "efficiency"
    "aggregator" "reference" "min util";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %8d %12.4f %11.3f Mb %11.3f Mb %10.4f@,"
        r.n_ifaces r.efficiency r.aggregator_rate r.aggregator_reference
        r.min_utilization)
    rows;
  Format.fprintf ppf "@]"
