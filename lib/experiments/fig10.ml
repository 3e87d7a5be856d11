open Midrr_core
module Proxy = Midrr_http.Proxy
module Link = Midrr_sim.Link
module Meter = Midrr_sim.Meter

type phase = {
  label : string;
  window : Meter.window;
  goodput : (string * float) list;
  fast_flow : string;
  b_tracks_faster : bool;
}

type result = {
  series : (string * (float * float) array) list;
  phases : phase list;
}

let flow_a = 0
let flow_b = 1
let flow_c = 2

let flow_name = function
  | f when f = flow_a -> "a"
  | f when f = flow_b -> "b"
  | _ -> "c"

(* Interface speeds alternate at 11, 18 and 29 s, after Fig. 11's phase
   boundaries: interface 1 is fast in [0,11) and [18,29), interface 2 in
   [11,18) and [29,45]. *)
let links =
  let steps initial changes =
    Link.steps ~initial:(Types.mbps initial)
      (List.map (fun (t, r) -> (t, Types.mbps r)) changes)
  in
  [
    (1, steps 12.0 [ (11.0, 4.0); (18.0, 12.0); (29.0, 4.0) ]);
    (2, steps 5.0 [ (11.0, 10.0); (18.0, 5.0); (29.0, 10.0) ]);
  ]

(* Measurement windows sit inside each phase, away from the switch
   transients. *)
let windows = [ (2.0, 10.5); (12.5, 17.5); (20.0, 28.5); (31.0, 44.0) ]

let phase label (window : Meter.window) =
  let gp f = Types.to_mbps window.rates.(f) in
  let faster = Float.max (gp flow_a) (gp flow_c) in
  {
    label;
    window;
    goodput =
      List.map (fun f -> (flow_name f, gp f)) [ flow_a; flow_b; flow_c ];
    fast_flow = (if gp flow_a >= gp flow_c then "a" else "c");
    (* b tracks the faster restricted flow within 20%. *)
    b_tracks_faster =
      Float.abs (gp flow_b -. faster) <= 0.2 *. Float.max 1.0 faster;
  }

let run ?(horizon = 45.0) () =
  let sched = Midrr.packed (Midrr.create ~base_quantum:65536 ()) in
  let proxy =
    Proxy.create ~bin:1.0 ~chunk_size:65536 ~pipeline_depth:4 ~rtt:0.03 ~sched
      ()
  in
  List.iter (fun (j, l) -> Proxy.add_iface proxy j l) links;
  Proxy.add_transfer proxy flow_a ~weight:1.0 ~allowed:[ 1 ] ();
  Proxy.add_transfer proxy flow_b ~weight:1.0 ~allowed:[ 1; 2 ] ();
  Proxy.add_transfer proxy flow_c ~weight:1.0 ~allowed:[ 2 ] ();
  let judged =
    List.map2
      (fun label (t0, t1) ->
        (label, Proxy.window proxy ~t0 ~t1 ~judge:(fun _ -> true)))
      [
        "phase 0-11s (if1 fast)";
        "phase 11-18s (if2 fast)";
        "phase 18-29s (if1 fast)";
        "phase 29s+ (if2 fast)";
      ]
      windows
  in
  Proxy.run proxy ~until:horizon;
  let series =
    List.map
      (fun f -> (flow_name f, Proxy.goodput_series proxy f))
      [ flow_a; flow_b; flow_c ]
  in
  { series; phases = List.map (fun (label, w) -> phase label (w ())) judged }

let print ppf r =
  Format.fprintf ppf
    "@[<v>Figure 10: HTTP goodput over fluctuating links (Mb/s)@,";
  List.iter
    (fun p ->
      Format.fprintf ppf "@,%s (window %.1f-%.1fs):@," p.label p.window.t0
        p.window.t1;
      List.iter
        (fun (name, g) -> Format.fprintf ppf "  flow %s: %.3f@," name g)
        p.goodput;
      Format.fprintf ppf "  faster restricted flow: %s; b tracks it: %b@,"
        p.fast_flow p.b_tracks_faster)
    r.phases;
  Format.fprintf ppf "@,goodput series (1s bins):@,";
  Fig6.print_series ppf r.series;
  Format.fprintf ppf "@]"

let print_clusters ppf r =
  Format.fprintf ppf "@[<v>Figure 11: HTTP cluster structure per phase@,";
  List.iter
    (fun p ->
      Format.fprintf ppf "@,%s:@," p.label;
      List.iter
        (Format.fprintf ppf "  %s@,")
        (Meter.cluster_lines ~name:flow_name p.window))
    r.phases;
  Format.fprintf ppf "@]"
