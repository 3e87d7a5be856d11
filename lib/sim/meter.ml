open Midrr_core
module Timeseries = Midrr_stats.Timeseries
module Event = Midrr_obs.Event
module Metrics = Midrr_obs.Metrics
module Busmetrics = Midrr_obs.Busmetrics

(* [cells] holds the bytes delivered per interface ([Int_tbl.Cells]). *)
type 'a flow = {
  id : Types.flow_id;
  mutable weight : float;
  mutable allowed : Types.iface_id list;
  size : int;
  series : Timeseries.t;
  mutable cells : int array;
  mutable done_at : float; (* nan until complete *)
  data : 'a;
}

type 'a t = {
  engine : Engine.t;
  bin : float;
  flows : 'a flow Int_tbl.Slots.t;
  sink : Midrr_obs.Sink.t option; (* the caller's sink, then the fold *)
  ev : Event.record; (* refilled per [Complete] *)
  metrics : Busmetrics.t option;
}

let create ~bin ?sink ?metrics engine sched =
  if not (bin > 0.0) then invalid_arg "Meter.create: bin <= 0";
  (* The caller's sink runs first, so an attached fold can never perturb
     what a trace consumer observes. *)
  let sink =
    match (sink, Option.map Busmetrics.sink metrics) with
    | Some s, Some m -> Some (Midrr_obs.Sink.tee s m)
    | s, None | None, s -> s
  in
  Option.iter
    (fun s ->
      Sched_intf.Packed.subscribe sched
        (Midrr_obs.Sink.stamp ~clock:(fun () -> Engine.now engine) s))
    sink;
  let flows = Int_tbl.Slots.create () in
  { engine; bin; flows; sink; ev = Event.create (); metrics }

let add_flow t f ~weight ~allowed ?(size = max_int) data =
  if Option.is_some (Int_tbl.Slots.find t.flows f) then
    invalid_arg "Meter.add_flow: duplicate";
  let series = Timeseries.create ~bin:t.bin in
  (* Sized by the flow's preference row; they grow when it delivers
     through more interfaces than that. *)
  let cells = Int_tbl.Cells.create (List.length allowed) in
  let fl =
    { id = f; weight; allowed; size; series; cells; done_at = Float.nan; data }
  in
  Int_tbl.Slots.set t.flows f fl;
  fl

let find t f =
  match Int_tbl.Slots.find t.flows f with
  | Some fl -> fl
  | None -> raise Not_found

let flow t f =
  match Int_tbl.Slots.find t.flows f with
  | Some fl -> fl
  | None -> invalid_arg "Meter: unknown flow"

let id fl = fl.id
let allowed fl = fl.allowed
let size fl = fl.size
let data fl = fl.data
let set_weight fl w = fl.weight <- w
let set_allowed fl allowed = fl.allowed <- allowed

let deliver t fl ~iface ~bytes =
  let time = Engine.now t.engine in
  (match t.sink with
  | None -> ()
  | Some s ->
      Event.set_complete t.ev ~flow:fl.id ~iface ~bytes;
      s ~time t.ev);
  Timeseries.record fl.series ~time ~bytes;
  let cells = Int_tbl.Cells.credit fl.cells iface bytes in
  if cells != fl.cells then fl.cells <- cells;
  if Timeseries.total_bytes fl.series >= fl.size && Float.is_nan fl.done_at
  then fl.done_at <- time

let gauge t j name =
  match t.metrics with
  | None -> -1
  | Some m ->
      Metrics.gauge (Busmetrics.registry m) (Printf.sprintf "iface%d_%s" j name)

let set_gauge t g v =
  match t.metrics with
  | Some m -> Metrics.set_gauge (Busmetrics.registry m) g v
  | None -> ()

(* --- measurement -------------------------------------------------------- *)

let rate_series t f = Timeseries.rate_series ~unit_scale:1e6 (flow t f).series

let avg_rate t f ~t0 ~t1 =
  Timeseries.rate_between ~unit_scale:1e6 (flow t f).series ~t0 ~t1

let delivered t f = Timeseries.total_bytes (flow t f).series

let completion_time t f =
  let d = (flow t f).done_at in
  if Float.is_nan d then None else Some d

let served_cell t ~flow ~iface =
  match Int_tbl.Slots.find t.flows flow with
  | Some fl -> Int_tbl.Cells.get fl.cells iface
  | None -> 0

type snapshot = { at : float; base : int array Int_tbl.Slots.t }

let snapshot t =
  let base = Int_tbl.Slots.create () in
  Int_tbl.Slots.iter
    (fun f fl -> Int_tbl.Slots.set base f (Array.copy fl.cells))
    t.flows;
  { at = Engine.now t.engine; base }

let share_since t snap ~flows ~ifaces =
  let dt = Engine.now t.engine -. snap.at in
  if not (dt > 0.0) then invalid_arg "Meter.share_since: empty window";
  let rate f j =
    let before =
      match Int_tbl.Slots.find snap.base f with
      | Some cells -> Int_tbl.Cells.get cells j
      | None -> 0
    in
    8.0 *. Float.of_int (served_cell t ~flow:f ~iface:j - before) /. dt
  in
  Array.of_list
    (List.map (fun f -> Array.of_list (List.map (rate f) ifaces)) flows)

let instance_of t ~capacity ~flows ~ifaces =
  let fls = List.map (flow t) flows in
  let row fl =
    Array.of_list
      (List.map (fun j -> List.exists (Int.equal j) fl.allowed) ifaces)
  in
  Midrr_flownet.Instance.make
    ~weights:(Array.of_list (List.map (fun fl -> fl.weight) fls))
    ~capacities:(Array.of_list (List.map capacity ifaces))
    ~allowed:(Array.of_list (List.map row fls))
