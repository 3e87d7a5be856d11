open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Meter = Midrr_sim.Meter

type phase = { label : string; window : Meter.window }

type result = {
  series : (int * (float * float) array) list;
  transient : (int * (float * float) array) list;
  completion_a : float;
  completion_b : float;
  phases : phase list;
}

let flow_a = 0
let flow_b = 1
let flow_c = 2

let mb_to_bytes mb = int_of_float (mb *. 1e6 /. 8.0)

let build ~bin =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~bin ~sched () in
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 3.0));
  Netsim.add_iface sim 2 (Link.constant (Types.mbps 10.0));
  Netsim.add_flow sim flow_a ~weight:1.0 ~allowed:[ 1 ]
    (Netsim.Finite { total_bytes = mb_to_bytes 198.0; pkt_size = 1500 });
  Netsim.add_flow sim flow_b ~weight:2.0 ~allowed:[ 1; 2 ]
    (Netsim.Finite { total_bytes = mb_to_bytes 604.67; pkt_size = 1500 });
  Netsim.add_flow sim flow_c ~weight:1.0 ~allowed:[ 2 ]
    (Netsim.Backlogged { pkt_size = 1500 });
  sim

let run () =
  (* Full run at 1 s bins for the Fig. 6(b) series and phase measurements. *)
  let sim = build ~bin:1.0 in
  let phases =
    List.map
      (fun (label, t0, t1, flows) ->
        (label, Netsim.window sim ~t0 ~t1 ~judge:(fun f -> List.mem f flows)))
      [
        ("phase 1 (0-66s)", 10.0, 60.0, [ flow_a; flow_b; flow_c ]);
        ("phase 2 (66-85s)", 69.0, 83.0, [ flow_b; flow_c ]);
        ("phase 3 (85-100s)", 88.0, 99.0, [ flow_c ]);
      ]
  in
  Netsim.run sim ~until:100.0;
  let series =
    List.map (fun f -> (f, Netsim.rate_series sim f)) [ flow_a; flow_b; flow_c ]
  in
  let completion_a = Option.value (Netsim.completion_time sim flow_a) ~default:Float.nan in
  let completion_b = Option.value (Netsim.completion_time sim flow_b) ~default:Float.nan in
  (* Separate fine-grained run for the Fig. 6(c) transient. *)
  let fine = build ~bin:0.25 in
  Netsim.run fine ~until:5.0;
  let transient =
    List.map (fun f -> (f, Netsim.rate_series fine f)) [ flow_a; flow_b; flow_c ]
  in
  {
    series;
    transient;
    completion_a;
    completion_b;
    phases = List.map (fun (label, w) -> { label; window = w () }) phases;
  }

let flow_name f =
  match f with
  | f when f = flow_a -> "a"
  | f when f = flow_b -> "b"
  | _ -> "c"

let print_series ppf series =
  let times =
    match series with (_, s) :: _ -> Array.map fst s | [] -> [||]
  in
  Format.fprintf ppf "  %6s" "t(s)";
  List.iter (fun (f, _) -> Format.fprintf ppf " %8s" (flow_name f)) series;
  Format.fprintf ppf "@,";
  Array.iteri
    (fun i t ->
      Format.fprintf ppf "  %6.2f" t;
      List.iter
        (fun (_, s) ->
          let v = if i < Array.length s then snd s.(i) else 0.0 in
          Format.fprintf ppf " %8.3f" v)
        series;
      Format.fprintf ppf "@,")
    times

let print ppf r =
  Format.fprintf ppf
    "@[<v>Figure 6: three flows over two interfaces (rates in Mb/s)@,";
  Format.fprintf ppf "flow a completes at %.2fs (paper: 66s)@," r.completion_a;
  Format.fprintf ppf "flow b completes at %.2fs (paper: 85s)@," r.completion_b;
  List.iter
    (fun { label; window = w } ->
      Format.fprintf ppf "@,%s (measured over %.0f-%.0fs):@," label w.t0 w.t1;
      List.iteri
        (fun i f ->
          Format.fprintf ppf "  flow %s: %.3f Mb/s (reference %.3f)@,"
            (flow_name f) (Types.to_mbps w.rates.(i))
            (Types.to_mbps w.reference.rates.(i)))
        w.flows;
      Format.fprintf ppf "  rate clustering violations: %d@,"
        (List.length w.violations))
    r.phases;
  Format.fprintf ppf "@,Figure 6(b) series (1s bins):@,";
  print_series ppf r.series;
  Format.fprintf ppf "@,Figure 6(c) transient (0.25s bins, first 5s):@,";
  print_series ppf r.transient;
  Format.fprintf ppf "@]"

let print_clusters ppf r =
  Format.fprintf ppf "@[<v>Figure 8: cluster evolution@,";
  List.iter
    (fun p ->
      Format.fprintf ppf "@,%s:@," p.label;
      List.iter
        (Format.fprintf ppf "  %s@,")
        (Meter.cluster_lines ~name:flow_name p.window))
    r.phases;
  Format.fprintf ppf "@]"
