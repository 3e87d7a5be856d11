let write_csv ~path ~header ~rows =
  let width = List.length header in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Export.write_csv: row %d has %d cells, want %d" i
             (List.length row) width))
    rows;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," header);
      output_char oc '\n';
      List.iter
        (fun row ->
          output_string oc (String.concat "," row);
          output_char oc '\n')
        rows)

let fmt_float v = Printf.sprintf "%.6g" v

let series_csv ~path series =
  let header = "time" :: List.map fst series in
  let longest =
    List.fold_left (fun acc (_, s) -> Stdlib.max acc (Array.length s)) 0 series
  in
  let rows =
    List.init longest (fun i ->
        let time =
          (* All series share a bin width; take the first that has row i. *)
          List.find_map
            (fun (_, s) -> if i < Array.length s then Some (fst s.(i)) else None)
            series
        in
        Option.value (Option.map fmt_float time) ~default:""
        :: List.map
             (fun (_, s) ->
               if i < Array.length s then fmt_float (snd s.(i)) else "")
             series)
  in
  write_csv ~path ~header ~rows

let cdf_csv ~path cdf =
  let rows =
    Array.to_list (Midrr_stats.Cdf.points cdf)
    |> List.map (fun (v, p) -> [ fmt_float v; fmt_float p ])
  in
  write_csv ~path ~header:[ "value"; "cumulative_probability" ] ~rows

let fig6 ~dir (r : Fig6.result) =
  let name f =
    if f = Fig6.flow_a then "a" else if f = Fig6.flow_b then "b" else "c"
  in
  series_csv
    ~path:(Filename.concat dir "fig6_series.csv")
    (List.map (fun (n, s) -> ("flow_" ^ n, s)) r.series);
  series_csv
    ~path:(Filename.concat dir "fig6_transient.csv")
    (List.map (fun (n, s) -> ("flow_" ^ n, s)) r.transient);
  let rows =
    List.concat_map
      (fun ({ label; window = w } : Fig6.phase) ->
        List.mapi
          (fun i f ->
            [
              label;
              name f;
              fmt_float (Midrr_core.Types.to_mbps w.rates.(i));
              fmt_float (Midrr_core.Types.to_mbps w.reference.rates.(i));
            ])
          w.flows)
      r.phases
  in
  write_csv
    ~path:(Filename.concat dir "fig6_phases.csv")
    ~header:[ "phase"; "flow"; "measured_mbps"; "reference_mbps" ]
    ~rows

let fig7 ~dir (r : Fig7.result) =
  cdf_csv ~path:(Filename.concat dir "fig7_cdf.csv") r.cdf

let fig9 ~dir (rows : Fig9.result) =
  let quantiles = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ] in
  let header =
    "quantile"
    :: List.map (fun (r : Fig9.row) -> Printf.sprintf "ifaces_%d" r.n_ifaces) rows
  in
  let body =
    List.map
      (fun q ->
        fmt_float q
        :: List.map
             (fun (r : Fig9.row) ->
               fmt_float (Midrr_stats.Cdf.quantile r.cdf ~q))
             rows)
      quantiles
  in
  write_csv ~path:(Filename.concat dir "fig9_cdf.csv") ~header ~rows:body;
  write_csv
    ~path:(Filename.concat dir "fig9_summary.csv")
    ~header:[ "ifaces"; "median_ns"; "p90_ns"; "p99_ns"; "supported_gbps" ]
    ~rows:
      (List.map
         (fun (r : Fig9.row) ->
           [
             string_of_int r.n_ifaces;
             fmt_float r.summary.median;
             fmt_float r.summary.p90;
             fmt_float r.summary.p99;
             fmt_float r.supported_gbps;
           ])
         rows)

let fig10 ~dir (r : Fig10.result) =
  series_csv
    ~path:(Filename.concat dir "fig10_series.csv")
    (List.map (fun (name, s) -> ("flow_" ^ name, s)) r.series);
  let rows =
    List.concat_map
      (fun (p : Fig10.phase) ->
        List.map
          (fun (name, g) ->
            [ p.label; name; fmt_float g; p.fast_flow;
              string_of_bool p.b_tracks_faster ])
          p.goodput)
      r.phases
  in
  write_csv
    ~path:(Filename.concat dir "fig10_phases.csv")
    ~header:[ "phase"; "flow"; "goodput_mbps"; "fast_flow"; "b_tracks_faster" ]
    ~rows
