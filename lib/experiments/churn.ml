open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Meter = Midrr_sim.Meter
module Gen = Midrr_trace.Gen
module Rng = Midrr_stats.Rng
module Summary = Midrr_stats.Summary

type result = {
  windows : int;
  mean_jain : float;
  min_jain : float;
  violations : int;
  starved_windows : int;
  peak_concurrent : int;
}

let ifaces = [ (1, Types.mbps 3.0); (2, Types.mbps 8.0); (3, Types.mbps 5.0) ]

type churn_flow = {
  id : int;
  start : float;
  stop : float;
  weight : float;
  allowed : Types.iface_id list;
}

(* Draw flow lifetimes from the smartphone trace model, then attach random
   weights and interface preferences. *)
let make_flows ~seed ~horizon =
  let params =
    {
      Gen.default_params with
      horizon;
      sessions_per_waking_hour = 60.0;
      waking_start = 0.0;
      waking_stop = 24.0;
    }
  in
  let trace = Gen.generate ~seed params in
  let rng = Rng.create ~seed:(seed + 1) in
  let eligible =
    List.filter (fun (iv : Gen.interval) -> iv.stop -. iv.start >= 3.0) trace
  in
  List.filteri (fun i _ -> i < 120) eligible
  |> List.mapi (fun i (iv : Gen.interval) ->
         let all = List.map fst ifaces in
         let allowed =
           List.filter (fun _ -> Rng.bernoulli rng ~p:0.6) all
         in
         let allowed = if allowed = [] then [ Rng.choose rng (Array.of_list all) ] else allowed in
         {
           id = i;
           start = iv.start;
           stop = iv.stop;
           weight = (if Rng.bernoulli rng ~p:0.3 then 2.0 else 1.0);
           allowed;
         })

let run ?(seed = 17) ?(horizon = 240.0)
    ?(sched = fun () -> Midrr.packed (Midrr.create ())) () =
  let flows = make_flows ~seed ~horizon in
  let sched = sched () in
  let sim = Netsim.create ~bin:1.0 ~sched () in
  List.iter (fun (j, c) -> Netsim.add_iface sim j (Link.constant c)) ifaces;
  List.iter
    (fun f ->
      Netsim.add_flow sim f.id ~at:f.start ~weight:f.weight ~allowed:f.allowed
        (Netsim.Backlogged { pkt_size = 1000 });
      Netsim.remove_flow sim ~at:f.stop f.id)
    flows;
  (* Sliding 5 s windows, each judged over the flows alive throughout
     it, when there are at least two. *)
  let window = 5.0 in
  let rec plan t0 acc =
    let t1 = t0 +. window in
    if t1 >= horizon then List.rev acc
    else
      let ids =
        List.filter_map
          (fun f ->
            if f.start <= t0 -. 0.5 && f.stop >= t1 +. 0.5 then Some f.id
            else None)
          flows
      in
      plan t1
        (if List.length ids >= 2 then
           Netsim.window sim ~t0 ~t1 ~judge:(fun f -> List.mem f ids) :: acc
         else acc)
  in
  let windows = plan 10.0 [] in
  Netsim.run sim ~until:horizon;
  (* Preference violations: any bytes on a banned interface. *)
  let violations = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun (j, _) ->
          if not (List.mem j f.allowed) then
            violations := !violations + Netsim.served_cell sim ~flow:f.id ~iface:j)
        ifaces)
    flows;
  (* Each judged flow's measured over reference rate. *)
  let ratios w =
    let ({ rates; reference; _ } : Meter.window) = w () in
    Array.mapi
      (fun i r ->
        let want = reference.rates.(i) in
        if want > 0.0 then r /. want else 1.0)
      rates
  in
  let ratios = List.map ratios windows in
  let jains = List.map Summary.jain_index ratios in
  let starved r n = if r <= 0.0 then n + 1 else n in
  {
    windows = List.length jains;
    mean_jain = Summary.mean (Array.of_list jains);
    min_jain = List.fold_left Float.min 1.0 jains;
    violations = !violations;
    starved_windows = Array.fold_right starved (Array.concat ratios) 0;
    peak_concurrent =
      List.fold_left (fun acc r -> Stdlib.max acc (Array.length r)) 0 ratios;
  }

let print ppf r =
  Format.fprintf ppf "@[<v>Churn stress: fairness under flow arrivals and \
                      departures@,";
  Format.fprintf ppf "windows measured: %d (5 s each)@," r.windows;
  Format.fprintf ppf "Jain index of measured/reference ratios: mean %.4f, \
                      min %.4f@,"
    r.mean_jain r.min_jain;
  Format.fprintf ppf "preference violations: %d bytes@," r.violations;
  Format.fprintf ppf "starved (window, flow) pairs: %d@," r.starved_windows;
  Format.fprintf ppf "peak concurrent measured flows: %d@," r.peak_concurrent;
  Format.fprintf ppf "@]"
