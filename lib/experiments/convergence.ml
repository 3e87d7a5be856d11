open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link

type row = {
  base_quantum : int;
  settling_time : float;
  ripple_pct : float;
  decisions_per_mb : float;
}

type result = row list

let horizon = 40.0
let bin = 0.25

let run_one base_quantum =
  (* Counter flags keep the allocation exact across quantum sizes, so the
     sweep isolates settling/ripple/cost; the 1-bit flag's quantum
     sensitivity is covered separately (EXPERIMENTS.md fidelity notes). *)
  let m = Midrr.create ~base_quantum ~counter_max:4 () in
  let sched = Midrr.packed m in
  let sim = Netsim.create ~bin ~sched () in
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 3.0));
  Netsim.add_iface sim 2 (Link.constant (Types.mbps 10.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 1 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.add_flow sim 1 ~weight:2.0 ~allowed:[ 1; 2 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.add_flow sim 2 ~weight:1.0 ~allowed:[ 2 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  (* The steady state, the second half of the run, judged over the three
     flows: its reference is Fig. 6's phase 1, 3, 6.67 and 3.33 Mb/s. *)
  let w =
    Netsim.window sim ~t0:(horizon /. 2.0) ~t1:horizon ~judge:(fun _ -> true)
  in
  Netsim.run sim ~until:horizon;
  let references = Array.map Types.to_mbps (w ()).reference.rates in
  let series = Array.init 3 (fun f -> Netsim.rate_series sim f) in
  (* Settling: the end of the last 1 s window in which any flow's rate
     strayed more than 10% from its reference (wide enough to sit above
     steady-state ripple for sane quanta). *)
  let step = 0.5 and win = 1.0 in
  let last_bad = ref 0.0 in
  let t = ref 0.0 in
  while !t +. win <= horizon -. 1.0 do
    for f = 0 to 2 do
      let v = Netsim.avg_rate sim f ~t0:!t ~t1:(!t +. win) in
      if Float.abs (v -. references.(f)) > 0.10 *. references.(f) then
        last_bad := !t +. win
    done;
    t := !t +. step
  done;
  let settling_time =
    if !last_bad >= horizon -. 2.0 then Float.nan else !last_bad
  in
  (* Ripple in steady state (second half of the run). *)
  let ripple =
    let per_flow =
      Array.mapi
        (fun f s ->
          let tail =
            Array.to_list s
            |> List.filter (fun (t, _) -> t > horizon /. 2.0)
            |> List.map (fun (_, v) -> v -. references.(f))
            |> Array.of_list
          in
          if Array.length tail < 2 then 0.0
          else
            100.0
            *. Midrr_stats.Summary.stddev tail
            /. references.(f))
        series
    in
    Midrr_stats.Summary.mean per_flow
  in
  let megabytes =
    Float.of_int
      (Drr_engine.served_bytes m 0 + Drr_engine.served_bytes m 1
     + Drr_engine.served_bytes m 2)
    /. 1e6
  in
  {
    base_quantum;
    settling_time;
    ripple_pct = ripple;
    decisions_per_mb = Float.of_int (Drr_engine.considered m) /. megabytes;
  }

let run ?(quanta = [ 1000; 1500; 6000; 24000 ]) () = List.map run_one quanta

let print ppf rows =
  Format.fprintf ppf
    "@[<v>Convergence ablation (paper 6.2): quantum size vs settling and \
     ripple@,";
  Format.fprintf ppf
    "(counter-4 coordination, 1000 B packets; EXPERIMENTS.md covers the \
     1-bit flag's quantum sensitivity)@,";
  Format.fprintf ppf "  %10s %14s %12s %16s@," "quantum(B)" "settling(s)"
    "ripple(%)" "decisions/MB";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %10d %14.2f %12.2f %16.0f@," r.base_quantum
        r.settling_time r.ripple_pct r.decisions_per_mb)
    rows;
  Format.fprintf ppf "@]"
