(* Inbound HTTP scheduling through the byte-range proxy (paper §5).

   A 100 MB download is split into byte-range chunk requests pipelined over
   both WiFi and LTE simultaneously — aggregating their bandwidth — while a
   browsing flow restricted to WiFi keeps its fair share.

   Run with: dune exec examples/http_download.exe *)

open Midrr_core
module Proxy = Midrr_http.Proxy
module Link = Midrr_sim.Link

let wifi = 1
let lte = 2

let download = 0
let browsing = 1

let () =
  let sched = Midrr.packed (Midrr.create ~base_quantum:65536 ()) in
  let proxy = Proxy.create ~chunk_size:65536 ~rtt:0.04 ~sched () in
  Proxy.add_iface proxy wifi (Link.constant (Types.mbps 6.0));
  Proxy.add_iface proxy lte (Link.constant (Types.mbps 4.0));

  Proxy.add_transfer proxy download ~total_bytes:(100 * 1024 * 1024)
    ~weight:1.0 ~allowed:[ wifi; lte ] ();
  Proxy.add_transfer proxy browsing ~weight:1.0 ~allowed:[ wifi ] ();

  (* Measure the per-interface split over a steady window. *)
  let judged = Proxy.window proxy ~t0:5.0 ~t1:60.0 ~judge:(fun _ -> true) in
  Proxy.run proxy ~until:150.0;
  let { Midrr_sim.Meter.share; reference; _ } = judged () in

  Format.printf "download goodput: %.3f Mb/s (WiFi %.2f + LTE %.2f)@."
    (Proxy.avg_goodput proxy download ~t0:5.0 ~t1:60.0)
    (Midrr_core.Types.to_mbps share.(0).(0))
    (Midrr_core.Types.to_mbps share.(0).(1));
  Format.printf "browsing goodput: %.3f Mb/s (WiFi only)@."
    (Proxy.avg_goodput proxy browsing ~t0:5.0 ~t1:60.0);
  (match Proxy.completion_time proxy download with
  | Some t -> Format.printf "download completed at %.1f s@." t
  | None -> Format.printf "download still running at 150 s@.");
  Format.printf
    "@.Max-min reference: both flows get %.1f Mb/s (the download aggregates \
     all of LTE plus a slice of WiFi).@."
    (Midrr_core.Types.to_mbps reference.rates.(0));
  Format.printf
    "Chunk-level miDRR lands near the reference; the residual gap is the \
     coarse-granularity cost the paper accepts for its HTTP prototype.@."
