module Curve = Midrr_netcalc.Curve
module Arrival = Midrr_netcalc.Arrival
module Service = Midrr_netcalc.Service
module Bound = Midrr_netcalc.Bound
module Busmetrics = Midrr_obs.Busmetrics
module Log_histogram = Midrr_stats.Log_histogram

type discipline = Drr | Midrr

let discipline_name = function Drr -> "drr" | Midrr -> "midrr"

type row = {
  flow : string;
  bound : float;
  samples : int;
  sim_max : float;
  sim_p99 : float;
  sim_p999 : float;
}

type report = { label : string; discipline : discipline; rows : row list }

let min_line_rate profile ~horizon =
  if not (horizon > 0.0) then invalid_arg "Bounds.min_line_rate: horizon <= 0";
  let rec go time acc =
    let acc = Float.min acc (Link.rate_at profile time) in
    match Link.next_change profile time with
    | Some at when at < horizon -> go at acc
    | _ -> acc
  in
  go 0.0 Float.infinity

let pkt_of_source : Netsim.source -> int = function
  | Backlogged { pkt_size }
  | Finite { pkt_size; _ }
  | Cbr { pkt_size; _ }
  | Poisson { pkt_size; _ }
  | On_off { pkt_size; _ }
  | Tb { pkt_size; _ } ->
      pkt_size

(* Only deterministically bounded sources carry an arrival curve; a
   Poisson source exceeds any affine envelope with probability 1 over an
   infinite horizon, so it gets none (and its flow no bound).  No
   scenario declares an on/off source, so it gets none either. *)
let arrival_of_source : Netsim.source -> Curve.t option = function
  | Cbr { rate; pkt_size; _ } ->
      Some (Arrival.cbr ~rate_bps:rate ~pkt:pkt_size)
  | Tb { rate; burst; _ } ->
      Some (Arrival.token_bucket ~rate:(rate /. 8.0) ~burst)
  | Backlogged _ | Finite _ | Poisson _ | On_off _ -> None

(* The quantum scale shared by the schedulers [report] runs and the
   service curves [analyze] derives. *)
let base_quantum = 1500

let sched_thunk = function
  | Drr -> fun () -> Midrr_core.Drr.packed (Midrr_core.Drr.create ~base_quantum ())
  | Midrr ->
      fun () -> Midrr_core.Midrr.packed (Midrr_core.Midrr.create ~base_quantum ())

let analyze ~discipline scn =
  let horizon = Scenario.horizon scn in
  let ifaces = Scenario.iface_profiles scn in
  let specs = Scenario.flow_specs scn in
  let bq = Float.of_int base_quantum in
  List.map
    (fun (fs : Scenario.flow_spec) ->
      match arrival_of_source fs.fs_source with
      | None -> (fs.fs_name, Float.infinity)
      | Some alpha ->
          let deficit_cells =
            match discipline with
            | Drr -> 1
            | Midrr -> List.length fs.fs_ifaces
          in
          (* Service from each allowed interface alone lower-bounds the
             flow's total service, so each interface yields a valid delay
             bound and the minimum over them is one too. *)
          let bound =
            List.fold_left
              (fun best j ->
                match List.assoc_opt j ifaces with
                | None -> best
                | Some profile ->
                    let c = min_line_rate profile ~horizon /. 8.0 in
                    if not (c > 0.0) then best
                    else
                      let competitors =
                        List.filter_map
                          (fun (other : Scenario.flow_spec) ->
                            if
                              other.fs_name = fs.fs_name
                              || not (List.mem j other.fs_ifaces)
                            then None
                            else
                              Some
                                {
                                  Service.quantum = other.fs_weight *. bq;
                                  max_pkt =
                                    Float.of_int (pkt_of_source other.fs_source);
                                  arrival = arrival_of_source other.fs_source;
                                })
                          specs
                      in
                      let beta =
                        Service.residual ~line_rate:c
                          ~quantum:(fs.fs_weight *. bq)
                          ~max_pkt:(Float.of_int (pkt_of_source fs.fs_source))
                          ~deficit_cells ~competitors
                      in
                      Float.min best (Bound.delay ~arrival:alpha ~service:beta))
              Float.infinity fs.fs_ifaces
          in
          (fs.fs_name, bound))
    specs

(* Flow [i]'s delays (the [i]-th spec's id) are the aggregate sketch of
   a fold fed only the events that carry id [i]: FIFO pairing, NaN cell
   and [Flow_remove] handling as in a fold over the whole stream. *)
let report ?seed ~label ~discipline scn =
  let bounds = analyze ~discipline scn in
  let specs = Scenario.flow_specs scn in
  let folds = Array.of_list (List.map (fun _ -> Busmetrics.create ()) specs) in
  let sink ~time (ev : Midrr_obs.Event.record) =
    if ev.flow >= 0 && ev.flow < Array.length folds then
      Busmetrics.on_event folds.(ev.flow) ~time ev
  in
  let (_ : Scenario.report) =
    Scenario.run ~sink ?seed ~sched:(sched_thunk discipline) scn
  in
  let rows =
    List.mapi
      (fun i (fs : Scenario.flow_spec) ->
        let bound =
          match List.assoc_opt fs.fs_name bounds with
          | Some b -> b
          | None -> Float.infinity
        in
        let h = Busmetrics.delay folds.(i) in
        (* max is exact; p99/p999 come from the streaming sketch
           (conservative: never below the true quantile, never above
           the exact max), so the bound check stays sound at O(1)
           memory per flow. *)
        let stat f = if Log_histogram.count h > 0 then f h else Float.nan in
        {
          flow = fs.fs_name;
          bound;
          samples = Log_histogram.count h;
          sim_max = stat Log_histogram.max_value;
          sim_p99 = stat (Log_histogram.quantile ~q:0.99);
          sim_p999 = stat (Log_histogram.quantile ~q:0.999);
        })
      specs
  in
  { label; discipline; rows }

(* --- rendering ------------------------------------------------------------ *)

let pp_ms ppf v =
  if Float.is_nan v then Format.fprintf ppf "%10s" "-"
  else if Float.is_finite v then Format.fprintf ppf "%10.3f" (v *. 1e3)
  else Format.fprintf ppf "%10s" "unbounded"

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s [%s]@," r.label (discipline_name r.discipline);
  Format.fprintf ppf "  %-12s %10s %10s %10s %10s %8s %10s@," "flow"
    "bound(ms)" "max(ms)" "p99(ms)" "p999(ms)" "samples" "tightness";
  List.iter
    (fun row ->
      let tightness =
        match Bound.tightness ~bound:row.bound ~observed:row.sim_max with
        | Some t when Float.is_finite t -> Printf.sprintf "%.3f" t
        | _ -> "-"
      in
      Format.fprintf ppf "  %-12s %a %a %a %a %8d %10s@," row.flow pp_ms
        row.bound pp_ms row.sim_max pp_ms row.sim_p99 pp_ms row.sim_p999
        row.samples tightness)
    r.rows;
  Format.fprintf ppf "@]"

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

let json_of_reports reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "  {\"scenario\": %S, \"discipline\": %S, \"flows\": ["
           r.label
           (discipline_name r.discipline));
      List.iteri
        (fun k row ->
          if k > 0 then Buffer.add_string buf ", ";
          let tightness =
            match Bound.tightness ~bound:row.bound ~observed:row.sim_max with
            | Some t when Float.is_finite t -> Printf.sprintf "%.9g" t
            | _ -> "null"
          in
          Buffer.add_string buf
            (Printf.sprintf
               "{\"flow\": %S, \"bound_s\": %s, \"samples\": %d, \"max_s\": \
                %s, \"p99_s\": %s, \"p999_s\": %s, \"tightness\": %s}"
               row.flow (json_float row.bound) row.samples
               (json_float row.sim_max) (json_float row.sim_p99)
               (json_float row.sim_p999) tightness))
        r.rows;
      Buffer.add_string buf "]}")
    reports;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
