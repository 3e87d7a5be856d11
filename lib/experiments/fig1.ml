open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Meter = Midrr_sim.Meter

type scenario = {
  label : string;
  description : string;
  reference : float array;
  measured : (string * float array) list;
}

type result = scenario list

type spec = {
  s_label : string;
  s_desc : string;
  ifaces : (Types.iface_id * float) list;
  flows : (Types.flow_id * float * Types.iface_id list) list;
}

let specs =
  [
    {
      s_label = "fig1a";
      s_desc = "one 2 Mb/s interface, equal weights";
      ifaces = [ (1, Types.mbps 2.0) ];
      flows = [ (0, 1.0, [ 1 ]); (1, 1.0, [ 1 ]) ];
    };
    {
      s_label = "fig1b";
      s_desc = "two 1 Mb/s interfaces, no interface preferences";
      ifaces = [ (1, Types.mbps 1.0); (2, Types.mbps 1.0) ];
      flows = [ (0, 1.0, [ 1; 2 ]); (1, 1.0, [ 1; 2 ]) ];
    };
    {
      s_label = "fig1c";
      s_desc = "flow b restricted to interface 2, equal weights";
      ifaces = [ (1, Types.mbps 1.0); (2, Types.mbps 1.0) ];
      flows = [ (0, 1.0, [ 1; 2 ]); (1, 1.0, [ 2 ]) ];
    };
    {
      s_label = "fig1c-weighted";
      s_desc = "flow b restricted to interface 2, phi_b = 2 phi_a (infeasible)";
      ifaces = [ (1, Types.mbps 1.0); (2, Types.mbps 1.0) ];
      flows = [ (0, 1.0, [ 1; 2 ]); (1, 2.0, [ 2 ]) ];
    };
  ]

let algorithms spec =
  let caps = spec.ifaces in
  [
    ("midrr", Midrr.packed (Midrr.create ()));
    ("drr-naive", Drr.packed (Drr.create ()));
    ("wfq", Prog_wfq.packed (Prog_wfq.create ()));
    ("round-robin", Prog_rr.packed (Prog_rr.create ()));
    ( "oracle",
      Oracle.packed
        (Oracle.create
           ~capacity:(fun j -> List.assoc j caps)
           ()) );
  ]

let mbps = Array.map Types.to_mbps

(* Judged over both flows, from a fifth of the horizon to its end. *)
let measure ~horizon spec sched =
  let sim = Netsim.create ~sched () in
  List.iter (fun (j, r) -> Netsim.add_iface sim j (Link.constant r)) spec.ifaces;
  List.iter
    (fun (f, w, allowed) ->
      Netsim.add_flow sim f ~weight:w ~allowed
        (Netsim.Backlogged { pkt_size = 1000 }))
    spec.flows;
  let w =
    Netsim.window sim ~t0:(horizon /. 5.0) ~t1:horizon ~judge:(fun _ -> true)
  in
  Netsim.run sim ~until:horizon;
  w ()

let run ?(horizon = 30.0) () =
  List.map
    (fun spec ->
      let judged =
        List.map (fun (name, sched) -> (name, measure ~horizon spec sched))
          (algorithms spec)
      in
      {
        label = spec.s_label;
        description = spec.s_desc;
        (* Every run judges the same instance. *)
        reference =
          (match judged with
          | (_, w) :: _ -> mbps w.reference.rates
          | [] -> [||]);
        measured =
          List.map
            (fun (name, (w : Meter.window)) -> (name, mbps w.rates))
            judged;
      })
    specs

let print ppf result =
  Format.fprintf ppf "@[<v>Figure 1 / Section 1 examples (rates in Mb/s)@,";
  List.iter
    (fun s ->
      Format.fprintf ppf "@,%s: %s@," s.label s.description;
      Format.fprintf ppf "  %-14s a=%.3f b=%.3f@," "reference"
        s.reference.(0) s.reference.(1);
      List.iter
        (fun (name, rates) ->
          Format.fprintf ppf "  %-14s a=%.3f b=%.3f@," name rates.(0)
            rates.(1))
        s.measured)
    result;
  Format.fprintf ppf "@]"
