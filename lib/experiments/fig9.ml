module Profiler = Midrr_bridge.Profiler
module Summary = Midrr_stats.Summary
module Cdf = Midrr_stats.Cdf

type row = {
  n_ifaces : int;
  summary : Summary.t;
  cdf : Cdf.t;
  supported_gbps : float;
}

type result = row list

let run ?(quick = false) ?(iface_counts = [ 4; 8; 12; 16 ]) () =
  let decisions = if quick then 2000 else 20000 in
  List.map
    (fun n_ifaces ->
      let r = Profiler.run ~decisions ~n_ifaces () in
      {
        n_ifaces;
        summary = Profiler.summary r;
        cdf = Profiler.cdf r;
        supported_gbps = Profiler.supported_rate_gbps r ~pkt_size:1000;
      })
    iface_counts

type flow_row = { n_flows : int; summary : Summary.t }

let run_flow_scaling ?(quick = false) () =
  let decisions = if quick then 2000 else 20000 in
  List.map
    (fun n_flows ->
      let r = Profiler.run ~decisions ~n_ifaces:8 ~n_flows () in
      { n_flows; summary = Profiler.summary r })
    [ 8; 32; 128; 512 ]

let print_flow_scaling ppf rows =
  Format.fprintf ppf
    "@[<v>Section 6.3 claim: decision time vs number of flows (8 \
     interfaces)@,";
  Format.fprintf ppf "  %8s %10s %10s %10s@," "flows" "p50(ns)" "p90(ns)"
    "p99(ns)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %8d %10.0f %10.0f %10.0f@," r.n_flows
        r.summary.median r.summary.p90 r.summary.p99)
    rows;
  Format.fprintf ppf "@]"

let print ppf rows =
  Format.fprintf ppf
    "@[<v>Figure 9: CDF of scheduling decision time vs interfaces@,";
  Format.fprintf ppf "  %8s %10s %10s %10s %10s %12s@," "ifaces" "p50(ns)"
    "p90(ns)" "p99(ns)" "max(ns)" "rate(Gb/s)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %8d %10.0f %10.0f %10.0f %10.0f %12.2f@,"
        r.n_ifaces r.summary.median r.summary.p90 r.summary.p99 r.summary.max
        r.supported_gbps)
    rows;
  Format.fprintf ppf "@,CDF quantiles (ns):@,";
  Format.fprintf ppf "  %8s" "q";
  List.iter (fun r -> Format.fprintf ppf " %8dif" r.n_ifaces) rows;
  Format.fprintf ppf "@,";
  List.iter
    (fun q ->
      Format.fprintf ppf "  %8.2f" q;
      List.iter
        (fun r -> Format.fprintf ppf " %10.0f" (Cdf.quantile r.cdf ~q))
        rows;
      Format.fprintf ppf "@,")
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ];
  Format.fprintf ppf "@]"
