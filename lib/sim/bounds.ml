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

let pkt_of_source = function
  | Scenario.S_backlogged pkt
  | Scenario.S_finite (_, pkt)
  | Scenario.S_cbr (_, pkt)
  | Scenario.S_poisson (_, pkt)
  | Scenario.S_tb (_, _, pkt) ->
      pkt

(* Only deterministically bounded sources carry an arrival curve; a
   Poisson source exceeds any affine envelope with probability 1 over an
   infinite horizon, so it gets none (and its flow no bound). *)
let arrival_of_source = function
  | Scenario.S_cbr (rate, pkt) -> Some (Arrival.cbr ~rate_bps:rate ~pkt)
  | Scenario.S_tb (rate, burst, _) ->
      Some (Arrival.token_bucket ~rate:(rate /. 8.0) ~burst)
  | Scenario.S_backlogged _ | Scenario.S_finite _ | Scenario.S_poisson _ ->
      None

let analyze ?(base_quantum = 1500) ~discipline scn =
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

let sched_thunk ~base_quantum = function
  | Drr -> fun () -> Midrr_core.Drr.packed (Midrr_core.Drr.create ~base_quantum ())
  | Midrr ->
      fun () -> Midrr_core.Midrr.packed (Midrr_core.Midrr.create ~base_quantum ())

let report ?(base_quantum = 1500) ?seed ~label ~discipline scn =
  let bounds = analyze ~base_quantum ~discipline scn in
  let bm = Busmetrics.create () in
  let (_ : Scenario.report) =
    Scenario.run ~metrics:bm ?seed
      ~sched:(sched_thunk ~base_quantum discipline)
      scn
  in
  let rows =
    List.mapi
      (fun i (fs : Scenario.flow_spec) ->
        let bound =
          match List.assoc_opt fs.fs_name bounds with
          | Some b -> b
          | None -> Float.infinity
        in
        match Busmetrics.flow_delay bm ~flow:i with
        | Some h when Log_histogram.count h > 0 ->
            (* max is exact; p99/p999 come from the streaming sketch
               (conservative: never below the true quantile, never above
               the exact max), so the bound check stays sound at O(1)
               memory per flow. *)
            {
              flow = fs.fs_name;
              bound;
              samples = Log_histogram.count h;
              sim_max = Log_histogram.max_value h;
              sim_p99 = Log_histogram.quantile h ~q:0.99;
              sim_p999 = Log_histogram.quantile h ~q:0.999;
            }
        | Some _ | None ->
            {
              flow = fs.fs_name;
              bound;
              samples = 0;
              sim_max = Float.nan;
              sim_p99 = Float.nan;
              sim_p999 = Float.nan;
            })
      (Scenario.flow_specs scn)
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
