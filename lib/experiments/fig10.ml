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
let if1_profile =
  Link.steps ~initial:(Types.mbps 12.0)
    [ (11.0, Types.mbps 4.0); (18.0, Types.mbps 12.0); (29.0, Types.mbps 4.0) ]

let if2_profile =
  Link.steps ~initial:(Types.mbps 5.0)
    [ (11.0, Types.mbps 10.0); (18.0, Types.mbps 5.0); (29.0, Types.mbps 10.0) ]

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
  Proxy.add_iface proxy 1 if1_profile;
  Proxy.add_iface proxy 2 if2_profile;
  Proxy.add_transfer proxy flow_a ~weight:1.0 ~allowed:[ 1 ] ();
  Proxy.add_transfer proxy flow_b ~weight:1.0 ~allowed:[ 1; 2 ] ();
  Proxy.add_transfer proxy flow_c ~weight:1.0 ~allowed:[ 2 ] ();
  (* Measurement windows sit inside each phase, away from the switch
     transients. *)
  let windows =
    List.map
      (fun (label, t0, t1) ->
        (label, Proxy.window proxy ~t0 ~t1 ~judge:(fun _ -> true)))
      [
        ("phase 0-11s (if1 fast)", 2.0, 10.5);
        ("phase 11-18s (if2 fast)", 12.5, 17.5);
        ("phase 18-29s (if1 fast)", 20.0, 28.5);
        ("phase 29s+ (if2 fast)", 31.0, 44.0);
      ]
  in
  Proxy.run proxy ~until:horizon;
  let series =
    List.map
      (fun f -> (flow_name f, Proxy.goodput_series proxy f))
      [ flow_a; flow_b; flow_c ]
  in
  { series; phases = List.map (fun (label, w) -> phase label (w ())) windows }

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
  (match r.series with
  | (_, first) :: _ ->
      Format.fprintf ppf "  %6s" "t(s)";
      List.iter (fun (name, _) -> Format.fprintf ppf " %8s" name) r.series;
      Format.fprintf ppf "@,";
      Array.iteri
        (fun i (t, _) ->
          Format.fprintf ppf "  %6.2f" t;
          List.iter
            (fun (_, s) ->
              let v = if i < Array.length s then snd s.(i) else 0.0 in
              Format.fprintf ppf " %8.3f" v)
            r.series;
          Format.fprintf ppf "@,")
        first
  | [] -> ());
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
