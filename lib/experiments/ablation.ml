open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Instance = Midrr_flownet.Instance

type row = { label : string; rates : float array }

type result = {
  flag_policy : row list;
  multihomed_reference : float array;
  multihomed : row list;
}

(* Flow D (0) may use both interfaces, flow B (1) only the faster one:
   a cluster spanning interfaces of unequal speed. *)
let flag_policy_rates sched =
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 6.0));
  Netsim.add_iface sim 2 (Link.constant (Types.mbps 4.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 1; 2 ]
    (Netsim.Backlogged { pkt_size = 1400 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.run sim ~until:40.0;
  Array.init 2 (fun f -> Netsim.avg_rate sim f ~t0:10.0 ~t1:40.0)

let multihomed_instance () =
  Instance.make
    ~weights:[| 2.32112; 2.16673; 2.96835; 3.61532 |]
    ~capacities:[| 3.4666e6; 1.98332e7; 3.87589e6 |]
    ~allowed:
      [|
        [| false; true; true |];
        [| true; true; true |];
        [| true; true; false |];
        [| true; false; true |];
      |]

let multihomed_reference () =
  Array.map Types.to_mbps
    (Midrr_flownet.Maxmin.solve (multihomed_instance ())).rates

let multihomed_rates sched =
  let inst = multihomed_instance () in
  let sim = Netsim.create ~sched () in
  Array.iteri
    (fun j c -> Netsim.add_iface sim j (Link.constant c))
    inst.capacities;
  Array.iteri
    (fun i w ->
      Netsim.add_flow sim i ~weight:w ~allowed:(Instance.allowed_ifaces inst i)
        (Netsim.Backlogged { pkt_size = 1000 }))
    inst.weights;
  Netsim.run sim ~until:25.0;
  Array.init (Instance.n_flows inst) (fun i ->
      Netsim.avg_rate sim i ~t0:5.0 ~t1:25.0)

(* Scheduler constructors: each row builds its scheduler just before its
   run, in row order. *)
let midrr ?flag_policy ?counter_max () () =
  Midrr.packed (Midrr.create ?flag_policy ?counter_max ())

let naive_drr () = Drr.packed (Drr.create ())

let rows rates_of cases =
  List.map (fun (label, sched) -> { label; rates = rates_of (sched ()) }) cases

let run () =
  let flag_policy =
    rows flag_policy_rates
      [
        ("midrr 1-bit (paper)", midrr ());
        ("midrr 1-bit per-send", midrr ~flag_policy:Drr_engine.Per_send ());
        ("midrr counter-4", midrr ~counter_max:4 ());
        ("midrr counter-16", midrr ~counter_max:16 ());
        ("naive per-iface DRR", naive_drr);
      ]
  in
  let multihomed_reference = multihomed_reference () in
  let caps = (multihomed_instance ()).capacities in
  let multihomed =
    rows multihomed_rates
      [
        ("midrr 1-bit (paper)", midrr ());
        ("midrr counter-4", midrr ~counter_max:4 ());
        ("midrr counter-16", midrr ~counter_max:16 ());
        ("naive per-iface DRR", naive_drr);
        ("wfq per-iface", fun () -> Prog_wfq.packed (Prog_wfq.create ()));
        ( "oracle (full info)",
          fun () ->
            Oracle.packed
              (Oracle.create ~capacity:(fun j -> caps.(j)) ()) );
      ]
  in
  { flag_policy; multihomed_reference; multihomed }

(* Each section opens with a blank line. *)
let print ppf r =
  let rates ppf a = Array.iter (Format.fprintf ppf " %7.3f") a in
  Format.fprintf ppf
    "@[<v>@,Ablation: service-flag policy on asymmetric interfaces@,";
  Format.fprintf ppf
    "Topology: if1 = 6 Mb/s (flows D, B), if2 = 4 Mb/s (flow D only).@,";
  Format.fprintf ppf "Water-filling reference: D = 5.000, B = 5.000 Mb/s.@,";
  List.iter
    (fun { label; rates } ->
      Format.fprintf ppf "  %-22s D=%.3f B=%.3f Mb/s@," label rates.(0)
        rates.(1))
    r.flag_policy;
  Format.fprintf ppf
    "(The paper's 1-bit flag deviates when a cluster spans interfaces of \
     unequal speed; the counter-flag@, extension recovers the reference \
     exactly — see EXPERIMENTS.md fidelity notes.)@,";
  Format.fprintf ppf
    "@,Ablation: fully multi-homed flows on asymmetric interfaces@,";
  Format.fprintf ppf "  %-22s%a Mb/s" "reference" rates r.multihomed_reference;
  List.iter
    (fun { label; rates = a } ->
      Format.fprintf ppf "@,  %-22s%a Mb/s" label rates a)
    r.multihomed;
  Format.fprintf ppf "@]"
