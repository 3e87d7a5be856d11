(* Command-line driver for the reproduction experiments.

   Each subcommand regenerates one of the paper's figures and prints the
   series/rows the figure plots.  `midrr all` runs the full evaluation. *)

open Cmdliner

let ppf = Format.std_formatter

let run_fig1 () = Format.fprintf ppf "%a@." Midrr_experiments.Fig1.print
    (Midrr_experiments.Fig1.run ())

let run_theorem1 () =
  Format.fprintf ppf "%a@." Midrr_experiments.Theorem1.print
    (Midrr_experiments.Theorem1.run ())

let run_fig6 ~clusters ?csv () =
  let r = Midrr_experiments.Fig6.run () in
  Format.fprintf ppf "%a@." Midrr_experiments.Fig6.print r;
  if clusters then
    Format.fprintf ppf "%a@." Midrr_experiments.Fig6.print_clusters r;
  Option.iter (fun dir -> Midrr_experiments.Export.fig6 ~dir r) csv

let run_fig7 ~seed ~days ?csv () =
  let r = Midrr_experiments.Fig7.run ~seed ~days () in
  Format.fprintf ppf "%a@." Midrr_experiments.Fig7.print r;
  Option.iter (fun dir -> Midrr_experiments.Export.fig7 ~dir r) csv

let run_fig8 () =
  Format.fprintf ppf "%a@." Midrr_experiments.Fig6.print_clusters
    (Midrr_experiments.Fig6.run ())

let run_fig9 ~quick ?csv () =
  let r = Midrr_experiments.Fig9.run ~quick () in
  Format.fprintf ppf "%a@." Midrr_experiments.Fig9.print r;
  Format.fprintf ppf "%a@." Midrr_experiments.Fig9.print_flow_scaling
    (Midrr_experiments.Fig9.run_flow_scaling ~quick ());
  Option.iter (fun dir -> Midrr_experiments.Export.fig9 ~dir r) csv

let run_fig10 ~clusters ?csv () =
  let r = Midrr_experiments.Fig10.run () in
  Format.fprintf ppf "%a@." Midrr_experiments.Fig10.print r;
  if clusters then
    Format.fprintf ppf "%a@." Midrr_experiments.Fig10.print_clusters r;
  Option.iter (fun dir -> Midrr_experiments.Export.fig10 ~dir r) csv

let run_fig11 () =
  Format.fprintf ppf "%a@." Midrr_experiments.Fig10.print_clusters
    (Midrr_experiments.Fig10.run ())

let run_granularity () =
  Format.fprintf ppf "%a@." Midrr_experiments.Granularity.print
    (Midrr_experiments.Granularity.run ())

let run_convergence () =
  Format.fprintf ppf "%a@." Midrr_experiments.Convergence.print
    (Midrr_experiments.Convergence.run ())

let run_churn ~seed () =
  Format.fprintf ppf "%a@." Midrr_experiments.Churn.print
    (Midrr_experiments.Churn.run ~seed ())

let run_inbound () =
  Format.fprintf ppf "%a@." Midrr_experiments.Inbound.print
    (Midrr_experiments.Inbound.run ())

let run_aggregation () =
  Format.fprintf ppf "%a@." Midrr_experiments.Aggregation.print
    (Midrr_experiments.Aggregation.run ())

let run_ablation () =
  Format.fprintf ppf "%a@." Midrr_experiments.Ablation.print
    (Midrr_experiments.Ablation.run ())

let run_scenario ?trace ?metrics_out ~metrics_interval ?chrome_trace ~top
    ~engine ~sched path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let finish, sink =
    (* Stream events straight to the file: a full run can emit far more
       events than any bounded recorder would retain. *)
    match trace with
    | None -> ((fun () -> ()), None)
    | Some out -> (
        match open_out out with
        | oc -> ((fun () -> close_out oc), Some (Midrr_obs.Jsonl.sink oc))
        | exception Sys_error e ->
            Format.eprintf "trace error: %s@." e;
            exit 1)
  in
  (* The telemetry plane: a bus-fold registry when any consumer wants
     it, span tracing when a Chrome trace was requested. *)
  let metrics =
    if metrics_out <> None || top then Some (Midrr_obs.Busmetrics.create ())
    else None
  in
  let spans =
    match chrome_trace with
    | None -> None
    | Some _ ->
        let clock () = Int64.to_int (Monotonic_clock.now ()) in
        Some (Midrr_obs.Span.create ~clock ())
  in
  let flush_metrics ?at m =
    Midrr_obs.Busmetrics.publish m;
    let reg = Midrr_obs.Busmetrics.registry m in
    Option.iter
      (fun path -> Midrr_obs.Export.write_prometheus reg ~path)
      metrics_out;
    if top then begin
      (match at with
      | Some time -> Format.eprintf "--- t=%.3fs ---@." time
      | None -> Format.eprintf "--- final ---@.");
      Format.eprintf "%a@." Midrr_obs.Export.pp_top reg
    end
  in
  let ticks =
    Option.map
      (fun m -> (metrics_interval, fun ~time -> flush_metrics ~at:time m))
      metrics
  in
  let result =
    let sched =
      Option.map
        (fun spec () -> Midrr_sim.Scenario.make_sched ~engine spec)
        sched
    in
    Fun.protect ~finally:finish (fun () ->
        Midrr_sim.Scenario.run_text ?sink ?metrics ?spans ?ticks ~engine ?sched
          text)
  in
  match result with
  | Ok report ->
      Format.fprintf ppf "%a@." Midrr_sim.Scenario.pp_report report;
      Option.iter
        (fun out -> Format.fprintf ppf "event trace written to %s@." out)
        trace;
      (* Final flush so short runs and end-of-run state are captured. *)
      Option.iter (fun m -> flush_metrics m) metrics;
      Option.iter
        (fun out -> Format.fprintf ppf "metrics written to %s@." out)
        metrics_out;
      (match (spans, chrome_trace) with
      | Some sp, Some out ->
          let oc = open_out out in
          Midrr_obs.Span.write_chrome sp oc;
          close_out oc;
          Format.fprintf ppf "chrome trace written to %s (%d spans, %d dropped)@."
            out (Midrr_obs.Span.count sp) (Midrr_obs.Span.dropped sp)
      | _ -> ())
  | Error e ->
      Format.eprintf "scenario error: %s@." e;
      exit 1

let run_bounds ~seed ~json paths =
  let reports =
    List.concat_map
      (fun path ->
        let text = In_channel.with_open_text path In_channel.input_all in
        match Midrr_sim.Scenario.parse text with
        | Error e ->
            Format.eprintf "%s: scenario error: %s@." path e;
            exit 1
        | Ok scn ->
            let label = Filename.basename path in
            if Midrr_sim.Scenario.has_events scn then
              Format.eprintf
                "%s: note: runtime `at` events are not modeled by the static \
                 analysis; bounds use the time-0 declarations@."
                path;
            List.map
              (fun discipline ->
                Midrr_sim.Bounds.report ~seed ~label ~discipline scn)
              [ Midrr_sim.Bounds.Drr; Midrr_sim.Bounds.Midrr ])
      paths
  in
  List.iter
    (fun r -> Format.fprintf ppf "%a@." Midrr_sim.Bounds.pp_report r)
    reports;
  Option.iter
    (fun out ->
      Out_channel.with_open_text out (fun oc ->
          Out_channel.output_string oc
            (Midrr_sim.Bounds.json_of_reports reports));
      Format.fprintf ppf "bounds report written to %s@." out)
    json

let run_sweep ~jobs ~seeds ~nseeds ~master_seed ~engines ~sched paths =
  let scenarios =
    List.map
      (fun path ->
        let text = In_channel.with_open_text path In_channel.input_all in
        match Midrr_sim.Scenario.parse text with
        | Ok scenario -> (path, scenario)
        | Error e ->
            Format.eprintf "%s: scenario error: %s@." path e;
            exit 1)
      paths
  in
  let seeds =
    match nseeds with
    | Some n -> Midrr_sim.Sweep.derived_seeds ~seed:master_seed n
    | None -> seeds
  in
  let outcomes =
    Midrr_sim.Sweep.run ?jobs ?sched ~scenarios ~seeds ~engines ()
  in
  print_string (Midrr_sim.Sweep.render outcomes)

let run_all ~quick ?csv () =
  run_fig1 ();
  run_theorem1 ();
  run_fig6 ~clusters:true ?csv ();
  run_fig7 ~seed:11 ~days:7.0 ?csv ();
  run_fig9 ~quick ?csv ();
  run_fig10 ~clusters:true ?csv ();
  run_granularity ();
  run_convergence ();
  run_churn ~seed:17 ();
  run_inbound ();
  run_aggregation ();
  run_ablation ()

(* --- terms ---------------------------------------------------------- *)

(* [base] narrowed to the values satisfying [ok]: cmdliner rejects any
   other value against its flag (exit 124) before a command runs, so no
   output file is opened for a run that cannot start. *)
let checked base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let pos_int = checked Arg.int ~expected:"a positive integer" (fun n -> n >= 1)

let pos_float =
  checked Arg.float ~expected:"a positive finite number" (fun x ->
      Float.is_finite x && x > 0.0)

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduce sample counts for speed.")

let clusters =
  Arg.(
    value & flag
    & info [ "clusters" ] ~doc:"Also print the cluster decomposition.")

let seed =
  Arg.(
    value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let days =
  Arg.(
    value & opt pos_float 7.0
    & info [ "days" ] ~docv:"DAYS" ~doc:"Trace length in days.")

let csv =
  Arg.(
    value
    & opt (some dir) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write the figure's data as CSV files into $(docv).")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let fig1_cmd =
  cmd "fig1" "Figure 1 / Section 1 canonical examples (all schedulers)"
    Term.(const run_fig1 $ const ())

let theorem1_cmd =
  cmd "theorem1" "Theorem 1 counterexample: finishing order is non-causal"
    Term.(const (fun () -> run_theorem1 ()) $ const ())

let fig6_cmd =
  cmd "fig6" "Figure 6: three flows over two interfaces"
    Term.(
      const (fun clusters csv () -> run_fig6 ~clusters ?csv ())
      $ clusters $ csv $ const ())

let fig7_cmd =
  cmd "fig7" "Figure 7: CDF of concurrent flows on a smartphone"
    Term.(
      const (fun seed days csv () -> run_fig7 ~seed ~days ?csv ())
      $ seed $ days $ csv $ const ())

let fig8_cmd =
  cmd "fig8" "Figure 8: cluster evolution during the Figure 6 run"
    Term.(const (fun () -> run_fig8 ()) $ const ())

let fig9_cmd =
  cmd "fig9" "Figure 9: CDF of scheduling decision time vs interfaces"
    Term.(
      const (fun quick csv () -> run_fig9 ~quick ?csv ())
      $ quick $ csv $ const ())

let fig10_cmd =
  cmd "fig10" "Figure 10: HTTP goodput over fluctuating links"
    Term.(
      const (fun clusters csv () -> run_fig10 ~clusters ?csv ())
      $ clusters $ csv $ const ())

let fig11_cmd =
  cmd "fig11" "Figure 11: HTTP cluster structure per phase"
    Term.(const (fun () -> run_fig11 ()) $ const ())

let granularity_cmd =
  cmd "granularity"
    "Ablation: HTTP chunk size vs max-min deviation (paper 6.4)"
    Term.(const (fun () -> run_granularity ()) $ const ())

let convergence_cmd =
  cmd "convergence" "Ablation: quantum size vs settling time and ripple"
    Term.(const (fun () -> run_convergence ()) $ const ())

let churn_cmd =
  cmd "churn" "Stress: fairness under smartphone-trace flow churn"
    Term.(const (fun seed () -> run_churn ~seed ()) $ seed $ const ())

let inbound_cmd =
  cmd "inbound" "Study: in-network ideal vs client HTTP inbound scheduling"
    Term.(const (fun () -> run_inbound ()) $ const ())

let aggregation_cmd =
  cmd "aggregation" "Study: bandwidth aggregation over 1-16 interfaces"
    Term.(const (fun () -> run_aggregation ()) $ const ())

let ablation_cmd =
  cmd "ablation"
    "Ablation: service-flag policy and fully multi-homed flows vs max-min"
    Term.(const (fun () -> run_ablation ()) $ const ())

let all_cmd =
  cmd "all" "Run the complete evaluation"
    Term.(
      const (fun quick csv () -> run_all ~quick ?csv ())
      $ quick $ csv $ const ())

let scenario_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Scenario file (see scenarios/*.scn).")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Stream the run's scheduler-event trace (enqueues, serves, turns, \
           flag resets, completions...) to $(docv) as JSON lines.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Attach the always-on telemetry fold and write its registry \
           (counters, queue-occupancy gauges, delay quantile sketches) to \
           $(docv) in Prometheus text exposition format, rewritten every \
           $(b,--metrics-interval) seconds of simulation time and once at \
           the end.")

let metrics_interval =
  Arg.(
    value
    & opt pos_float 1.0
    & info [ "metrics-interval" ] ~docv:"SECONDS"
        ~doc:
          "Simulation-time period between metrics exports and $(b,--top) \
           snapshots (default 1.0).")

let chrome_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "Record begin/end spans around the scheduler-facing phases \
           (decide, enqueue, complete) with wall-clock timestamps and write \
           them to $(docv) as Chrome trace_event JSON (load in \
           chrome://tracing or Perfetto).")

let top =
  Arg.(
    value & flag
    & info [ "top" ]
        ~doc:
          "Print a periodic one-screen telemetry snapshot (counters, \
           gauges, delay quantiles) to stderr every \
           $(b,--metrics-interval) seconds of simulation time.")

(* Engine names parse to a tag first; [--shards] resolves [sharded] to
   its concrete [Engine_sharded n] at command time. *)
let engine_tag_conv =
  Arg.enum [ ("fast", `Fast); ("ref", `Ref); ("sharded", `Sharded) ]

let resolve_engine ~shards = function
  | `Fast -> Midrr_sim.Scenario.Engine_fast
  | `Ref -> Midrr_sim.Scenario.Engine_ref
  | `Sharded -> Midrr_sim.Scenario.Engine_sharded shards

let shards_arg =
  Arg.(
    value & opt pos_int 4
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard count for $(b,--engine sharded): the fast engine is \
           partitioned over $(docv) private per-shard instances (default \
           4).  Ignored by the other engines.")

let engine =
  Arg.(
    value
    & opt engine_tag_conv `Fast
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "DRR/miDRR engine implementation: $(b,fast) (the default \
           O(active-flows) engine), $(b,ref) (the reference \
           executable-specification engine) or $(b,sharded) (the fast \
           engine partitioned across $(b,--shards) instances).  All \
           produce identical schedules; $(b,ref) exists for \
           cross-checking and benchmarking.")

let sched_override =
  let parse s =
    match Midrr_sim.Scenario.sched_of_name s with
    | Some spec -> Ok spec
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown discipline %S (valid: %s)" s
                (String.concat ", " Midrr_sim.Scenario.sched_names)))
  in
  let print ppf spec =
    Format.pp_print_string ppf (Midrr_sim.Scenario.sched_name spec)
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "sched" ] ~docv:"NAME"
        ~doc:
          "Override the scenario's $(b,scheduler) directive with discipline \
           $(docv) (one of midrr, drr, wfq, rr, sprio, srpt, edf, lstf).")

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a declarative scenario file and print its measurements")
    Term.(
      const (fun trace metrics_out metrics_interval chrome_trace top engine
                 shards sched path ->
          run_scenario ?trace ?metrics_out ~metrics_interval ?chrome_trace
            ~top
            ~engine:(resolve_engine ~shards engine)
            ~sched path)
      $ trace $ metrics_out $ metrics_interval $ chrome_trace $ top $ engine
      $ shards_arg $ sched_override $ scenario_file)

let bounds_files =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Scenario files to analyze (e.g. scenarios/bound_twoiface.scn).")

let bounds_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the full report as JSON to $(docv).")

let bounds_cmd =
  Cmd.v
    (Cmd.info "bounds"
       ~doc:
         "Network-calculus delay bounds vs. simulation: for each scenario \
          and each of drr/midrr, derive every flow's analytical worst-case \
          delay from its arrival curve and residual service curve \
          (DESIGN.md section 12) and print it next to the simulated \
          max/p99/p999 enqueue-to-service delay and the tightness ratio.  \
          Flows with unbounded sources (backlogged, finite, poisson) have \
          no arrival curve and print as unbounded.")
    Term.(
      const (fun seed json paths -> run_bounds ~seed ~json paths)
      $ seed $ bounds_json $ bounds_files)

let sweep_files =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"FILE" ~doc:"Scenario files (see scenarios/*.scn).")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run grid points on $(docv) domains (default: the machine's \
           recommended domain count).  The merged output is byte-identical \
           whatever $(docv) is.")

let sweep_seeds =
  Arg.(
    value
    & opt
        (checked Arg.(list int) ~expected:"a non-empty seed list" (fun l ->
             not (List.is_empty l)))
        [ 1 ]
    & info [ "seeds" ] ~docv:"S1,S2,..."
        ~doc:"Explicit per-point random seeds (default 1).")

let sweep_nseeds =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "nseeds" ] ~docv:"N"
        ~doc:
          "Derive $(docv) seeds from the master $(b,--seed) via RNG \
           splitting instead of listing them with $(b,--seeds).")

let sweep_master_seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Master seed expanded by $(b,--nseeds).")

let sweep_engines =
  Arg.(
    value
    & opt (list engine_tag_conv) [ `Fast ]
    & info [ "engines" ] ~docv:"E1,E2"
        ~doc:
          "Engines to cross into the grid: any of $(b,fast), $(b,ref) and \
           $(b,sharded) ($(b,--shards) fixes the shard count).")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a scenario x seed x engine grid, sharded across domains \
          ($(b,--jobs)), and print each point's report in deterministic \
          grid order")
    Term.(
      const (fun jobs seeds nseeds master_seed engines shards sched paths ->
          run_sweep ~jobs ~seeds ~nseeds ~master_seed
            ~engines:(List.map (resolve_engine ~shards) engines)
            ~sched paths)
      $ jobs $ sweep_seeds $ sweep_nseeds $ sweep_master_seed $ sweep_engines
      $ shards_arg $ sched_override $ sweep_files)

let main =
  let doc = "miDRR reproduction: scheduling packets over multiple interfaces" in
  let info = Cmd.info "midrr" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      fig1_cmd;
      theorem1_cmd;
      fig6_cmd;
      fig7_cmd;
      fig8_cmd;
      fig9_cmd;
      fig10_cmd;
      fig11_cmd;
      granularity_cmd;
      convergence_cmd;
      churn_cmd;
      inbound_cmd;
      aggregation_cmd;
      ablation_cmd;
      run_cmd;
      bounds_cmd;
      sweep_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main)
