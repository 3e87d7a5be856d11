open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Meter = Midrr_sim.Meter

type row = { label : string; rates : float array }
type table = { reference : float array; rows : row list }
type result = { flag_policy : table; multihomed : table }

let judged sim ~t0 ~t1 =
  let w = Netsim.window sim ~t0 ~t1 ~judge:(fun _ -> true) in
  Netsim.run sim ~until:t1;
  w ()

(* Flow D (0) may use both interfaces, flow B (1) only the faster one:
   a cluster spanning interfaces of unequal speed. *)
let flag_policy sched =
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 6.0));
  Netsim.add_iface sim 2 (Link.constant (Types.mbps 4.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 1; 2 ]
    (Netsim.Backlogged { pkt_size = 1400 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  judged sim ~t0:10.0 ~t1:40.0

(* Four flows over three asymmetric interfaces (interface ids 0-2). *)
let capacities = [ 3.4666e6; 1.98332e7; 3.87589e6 ]

let flows =
  [
    (2.32112, [ 1; 2 ]); (2.16673, [ 0; 1; 2 ]); (2.96835, [ 0; 1 ]);
    (3.61532, [ 0; 2 ]);
  ]

let multihomed sched =
  let sim = Netsim.create ~sched () in
  List.iteri (fun j c -> Netsim.add_iface sim j (Link.constant c)) capacities;
  List.iteri
    (fun i (weight, allowed) ->
      Netsim.add_flow sim i ~weight ~allowed
        (Netsim.Backlogged { pkt_size = 1000 }))
    flows;
  judged sim ~t0:5.0 ~t1:25.0

(* Scheduler constructors: each row builds its scheduler just before its
   run, in row order. *)
let midrr ?flag_policy ?counter_max () () =
  Midrr.packed (Midrr.create ?flag_policy ?counter_max ())

let naive_drr () = Drr.packed (Drr.create ())
let mbps = Array.map Types.to_mbps

(* Every row judges the same instance: the first window's reference is
   the table's. *)
let table measure cases =
  let judged =
    List.map (fun (label, sched) -> (label, measure (sched ()))) cases
  in
  {
    reference =
      (match judged with
      | (_, (w : Meter.window)) :: _ -> mbps w.reference.rates
      | [] -> [||]);
    rows =
      List.map
        (fun (label, (w : Meter.window)) -> { label; rates = mbps w.rates })
        judged;
  }

let run () =
  let flag_policy =
    table flag_policy
      [
        ("midrr 1-bit (paper)", midrr ());
        ("midrr 1-bit per-send", midrr ~flag_policy:Drr_engine.Per_send ());
        ("midrr counter-4", midrr ~counter_max:4 ());
        ("midrr counter-16", midrr ~counter_max:16 ());
        ("naive per-iface DRR", naive_drr);
      ]
  in
  let multihomed =
    table multihomed
      [
        ("midrr 1-bit (paper)", midrr ());
        ("midrr counter-4", midrr ~counter_max:4 ());
        ("midrr counter-16", midrr ~counter_max:16 ());
        ("naive per-iface DRR", naive_drr);
        ("wfq per-iface", fun () -> Prog_wfq.packed (Prog_wfq.create ()));
        ( "oracle (full info)",
          fun () ->
            Oracle.packed
              (Oracle.create ~capacity:(fun j -> List.nth capacities j) ()) );
      ]
  in
  { flag_policy; multihomed }

(* Each section opens with a blank line. *)
let print ppf r =
  let rates ppf a = Array.iter (Format.fprintf ppf " %7.3f") a in
  Format.fprintf ppf
    "@[<v>@,Ablation: service-flag policy on asymmetric interfaces@,";
  Format.fprintf ppf
    "Topology: if1 = 6 Mb/s (flows D, B), if2 = 4 Mb/s (flow D only).@,";
  Format.fprintf ppf "Water-filling reference: D = %.3f, B = %.3f Mb/s.@,"
    r.flag_policy.reference.(0) r.flag_policy.reference.(1);
  List.iter
    (fun { label; rates } ->
      Format.fprintf ppf "  %-22s D=%.3f B=%.3f Mb/s@," label rates.(0)
        rates.(1))
    r.flag_policy.rows;
  Format.fprintf ppf
    "(The paper's 1-bit flag deviates when a cluster spans interfaces of \
     unequal speed; the counter-flag@, extension recovers the reference \
     exactly — see EXPERIMENTS.md fidelity notes.)@,";
  Format.fprintf ppf
    "@,Ablation: fully multi-homed flows on asymmetric interfaces@,";
  Format.fprintf ppf "  %-22s%a Mb/s" "reference" rates r.multihomed.reference;
  List.iter
    (fun { label; rates = a } ->
      Format.fprintf ppf "@,  %-22s%a Mb/s" label rates a)
    r.multihomed.rows;
  Format.fprintf ppf "@]"
