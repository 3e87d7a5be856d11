(* Multi-core scaling gates: the two speedup checks no test repeats.

   [--par-only] times a scenario sweep at jobs 1/2/4 (BENCH_par.json);
   [--shard-only] times the fleet replay on the sharded engine at 1/2/4/8
   shards against the single-domain engine (BENCH_shard.json).  Each exits
   1 if its output diverges from the serial run, or if its speedup gate
   fails on a machine with enough domains to arm it.  With neither flag,
   both run.  The paper's figures and ablations are [midrr all]; the
   layered benchmark is bench/suite.

   Run with: dune exec bench/main.exe [-- --par-only|--shard-only] [--quick] *)

open Midrr_core

let quick =
  Array.exists (fun a -> a = "--quick" || a = "-q") Sys.argv

let section title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

(* --- Parallel sweep speedup ----------------------------------------------- *)

(* Wall-clock of a scenario sweep at increasing domain counts, with the
   hard gate that every jobs level renders byte-identical output to
   jobs=1.

   The grid must be large enough that domain-spawn cost (paid once per
   [Par.run]) is amortized: early revisions measured a 16-point grid,
   which on fast machines sits right at the spawn threshold and reported
   speedups below 1.0x that were fixed cost, not contention.  Two things
   fix that at the root: the main grid is measured past the threshold
   (32 points), and a break-even scan over grid prefixes (4/8/16/32
   points) reports the smallest grid where jobs=2 pays for its spawns —
   so a sub-1.0x reading is attributable from the JSON alone.  On
   multi-core machines speedup >= 1.0x at jobs=2 on the full grid is a
   hard gate; [recommended_domains] is recorded so a single-core box
   reporting ~1.0x is distinguishable from a regression.  Results go to
   BENCH_par.json. *)
let bench_par () =
  section "Parallel sweep: wall-clock vs --jobs";
  let scn_steady =
    "scheduler midrr\n\
     iface 1 constant 10Mb\n\
     iface 2 constant 5Mb\n\
     flow a weight=1 ifaces=1 backlogged pkt=1500\n\
     flow b weight=2 ifaces=1,2 poisson rate=8Mb pkt=1200\n\
     flow c weight=1 ifaces=2 cbr rate=2Mb pkt=1000\n\
     measure 2 28\n\
     run 30\n"
  and scn_churn =
    "scheduler midrr counter=4\n\
     iface 1 steps 8Mb 10:4Mb 20:12Mb\n\
     iface 2 constant 6Mb\n\
     flow a weight=1 ifaces=1,2 poisson rate=6Mb pkt=1400\n\
     flow b weight=3 ifaces=2 finite bytes=9MB pkt=1500\n\
     flow c weight=1 ifaces=1 poisson rate=3Mb pkt=600\n\
     at 15 weight a 2\n\
     measure 2 28\n\
     run 30\n"
  in
  let scenario label text =
    match Midrr_sim.Scenario.parse text with
    | Ok s -> (label, s)
    | Error e -> failwith (Printf.sprintf "bench_par %s: %s" label e)
  in
  let scenarios =
    [ scenario "steady" scn_steady; scenario "churn" scn_churn ]
  in
  let all_seeds = Midrr_sim.Sweep.derived_seeds ~seed:42 8 in
  let engines = [ Midrr_sim.Scenario.Engine_fast; Midrr_sim.Scenario.Engine_ref ] in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  let sweep_at ~seeds jobs =
    let t0 = Monotonic_clock.now () in
    let outcomes = Midrr_sim.Sweep.run ~jobs ~scenarios ~seeds ~engines () in
    let t1 = Monotonic_clock.now () in
    (Midrr_sim.Sweep.render outcomes, Int64.to_float (Int64.sub t1 t0) /. 1e9)
  in
  (* Untimed warm-up so jobs=1 doesn't pay first-run costs the others skip. *)
  ignore (sweep_at ~seeds:(take 1 all_seeds) 1);
  let recommended = Midrr_par.Par.recommended_jobs () in
  (* Break-even scan: the same sweep over growing seed prefixes, timed at
     jobs=1 vs jobs=2.  The smallest grid whose jobs=2 speedup reaches
     1.0x is the spawn-amortization threshold on this machine. *)
  let per_seed = List.length scenarios * List.length engines in
  Format.printf "  break-even scan (jobs=2 vs 1):@.";
  Format.printf "  %-8s %10s %10s %10s@." "points" "1-job s" "2-job s" "speedup";
  let scan =
    List.map
      (fun n ->
        let seeds = take n all_seeds in
        let points = per_seed * n in
        let _, s1 = sweep_at ~seeds 1 in
        let _, s2 = sweep_at ~seeds 2 in
        Format.printf "  %-8d %10.3f %10.3f %9.2fx@." points s1 s2 (s1 /. s2);
        (points, s1 /. s2))
      [ 1; 2; 4; 8 ]
  in
  let break_even =
    match List.find_opt (fun (_, sp) -> sp >= 1.0) scan with
    | Some (points, _) -> points
    | None -> -1
  in
  (* The gated measurement: the full grid, past the threshold. *)
  let seeds = all_seeds in
  let baseline, base_s = sweep_at ~seeds 1 in
  let grid_points = per_seed * List.length seeds in
  Format.printf "  grid: %d points, recommended domains: %d, break-even: %d \
                 points@."
    grid_points recommended break_even;
  Format.printf "  %-8s %10s %10s %10s@." "jobs" "wall s" "speedup" "identical";
  Format.printf "  %-8d %10.3f %10s %10s@." 1 base_s "1.00x" "-";
  let runs =
    List.map
      (fun jobs ->
        let rendered, wall_s = sweep_at ~seeds jobs in
        let identical = String.equal rendered baseline in
        Format.printf "  %-8d %10.3f %9.2fx %10s@." jobs wall_s
          (base_s /. wall_s)
          (if identical then "yes" else "NO");
        (jobs, wall_s, identical))
      [ 2; 4 ]
  in
  let oc = open_out "BENCH_par.json" in
  Printf.fprintf oc
    "{\"grid_points\":%d,\"recommended_domains\":%d,\"break_even_points\":%d,\"break_even_scan\":["
    grid_points recommended break_even;
  List.iteri
    (fun i (points, sp) ->
      Printf.fprintf oc "%s{\"points\":%d,\"speedup_jobs2\":%.2f}"
        (if i = 0 then "" else ",")
        points sp)
    scan;
  Printf.fprintf oc
    "],\"runs\":[{\"jobs\":1,\"wall_s\":%.3f,\"speedup_vs_jobs1\":1.0,\"identical_output\":true}"
    base_s;
  List.iter
    (fun (jobs, wall_s, identical) ->
      Printf.fprintf oc
        ",{\"jobs\":%d,\"wall_s\":%.3f,\"speedup_vs_jobs1\":%.2f,\"identical_output\":%b}"
        jobs wall_s (base_s /. wall_s) identical)
    runs;
  Printf.fprintf oc "]}\n";
  close_out oc;
  Format.printf "  written to BENCH_par.json@.";
  if List.exists (fun (_, _, identical) -> not identical) runs then begin
    Format.printf "  FAIL: parallel sweep output differs from --jobs 1@.";
    exit 1
  end;
  (match List.find_opt (fun (jobs, _, _) -> jobs = 2) runs with
  | Some (_, wall_s, _) when recommended >= 2 && base_s /. wall_s < 1.0 ->
      Format.printf
        "  FAIL: jobs=2 speedup %.2fx < 1.00x on the %d-point grid (%d \
         domains available)@."
        (base_s /. wall_s) grid_points recommended;
      exit 1
  | _ -> ())

(* --- Sharded engine scaling ---------------------------------------------- *)

(* Decisions/sec of the sharded engine vs the single-domain fast engine
   on the Fleet workload (~1M registered flows full-scale; [--quick]
   scales the population down ~20x, same op mix).  Both sides replay the
   identical op array; the sharded run is checked to produce the same
   aggregate counters as the baseline before any timing is believed.
   The scaling gates (>= 1.6x at 2 shards, >= 2.5x at 4) only apply
   when the machine has enough domains to host the workers plus the
   router (shards + 1); below that the ratios are recorded but ungated,
   with [recommended_domains] in the JSON telling the two cases apart.
   Results go to BENCH_shard.json. *)
let bench_shard () =
  section "Sharded engine: decisions/sec vs shards on the fleet workload";
  let params =
    if quick then Midrr_trace.Fleet.(scale million_params 0.05)
    else Midrr_trace.Fleet.million_params
  in
  let ops = Midrr_trace.Fleet.ops params in
  let n_ops = Array.length ops in
  let registered = Midrr_trace.Fleet.registered_flows params in
  let recommended = Midrr_par.Par.recommended_jobs () in
  Format.printf
    "  workload: %d ops, %d registered flows, recommended domains: %d@." n_ops
    registered recommended;
  let timed f =
    let t0 = Monotonic_clock.now () in
    let st = f () in
    let t1 = Monotonic_clock.now () in
    (st, Int64.to_float (Int64.sub t1 t0) /. 1e9)
  in
  let mb words = Float.of_int (words * (Sys.word_size / 8)) /. 1048576.0 in
  let (base_st, base_s), top_heap_mb, live_mb =
    let e = Drr_engine.create Drr_engine.Service_flags in
    let pass = timed (fun () -> Shard_engine.run_ops_single e ops) in
    (* Peak major heap so far: the op array plus the single engine at its
       largest, before any sharded run can raise it. *)
    let top = mb (Gc.quick_stat ()).top_heap_words in
    (* What of it is live: the op array and the engine, after a full
       major collection, outside the timed pass. *)
    Gc.full_major ();
    let live = mb (Gc.stat ()).live_words in
    ignore (Sys.opaque_identity e);
    (pass, top, live)
  in
  let base_rate = float_of_int base_st.Shard_engine.rs_decisions /. base_s in
  Format.printf
    "  top heap after the single-engine pass: %.1f MB, %.1f MB of it live@."
    top_heap_mb live_mb;
  Format.printf "  %-8s %10s %14s %9s %7s@." "engine" "wall s" "decisions/s"
    "speedup" "match";
  Format.printf "  %-8s %10.3f %14.0f %9s %7s@." "single" base_s base_rate
    "1.00x" "-";
  let shard_counts = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun shards ->
        let st, wall_s =
          timed (fun () ->
              let t =
                Shard_engine.create ~shards ~strict:true
                  Drr_engine.Service_flags
              in
              Shard_engine.run_ops ~mailbox:65_536 t ops)
        in
        let matches =
          st.Shard_engine.rs_decisions = base_st.Shard_engine.rs_decisions
          && st.rs_sent = base_st.rs_sent
          && st.rs_sent_bytes = base_st.rs_sent_bytes
          && st.rs_enqueued = base_st.rs_enqueued
          && st.rs_dropped = base_st.rs_dropped
        in
        let rate = float_of_int st.Shard_engine.rs_decisions /. wall_s in
        Format.printf "  %-8d %10.3f %14.0f %8.2fx %7s@." shards wall_s rate
          (rate /. base_rate)
          (if matches then "yes" else "NO");
        (shards, wall_s, rate, matches))
      shard_counts
  in
  let oc = open_out "BENCH_shard.json" in
  Printf.fprintf oc
    "{\"nproc\":%d,\"ocaml_version\":%S,\"flambda\":%b,\"registered_flows\":%d,\"ops\":%d,\"recommended_domains\":%d,\"quick\":%b,\"top_heap_mb\":%.1f,\"live_mb\":%.1f,\"single\":{\"wall_s\":%.3f,\"decisions\":%d,\"decisions_per_sec\":%.0f},\"sharded\":["
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_info.flambda registered n_ops recommended quick
    top_heap_mb live_mb base_s base_st.Shard_engine.rs_decisions base_rate;
  List.iteri
    (fun i (shards, wall_s, rate, matches) ->
      Printf.fprintf oc
        "%s{\"shards\":%d,\"wall_s\":%.3f,\"decisions_per_sec\":%.0f,\"speedup_vs_single\":%.2f,\"stats_match\":%b,\"gated\":%b}"
        (if i = 0 then "" else ",")
        shards wall_s rate (rate /. base_rate) matches
        (recommended >= shards + 1))
    rows;
  Printf.fprintf oc "]}\n";
  close_out oc;
  Format.printf "  written to BENCH_shard.json@.";
  if List.exists (fun (_, _, _, matches) -> not matches) rows then begin
    Format.printf
      "  FAIL: sharded aggregate counters differ from the single-domain run@.";
    exit 1
  end;
  let gate shards need =
    match List.find_opt (fun (s, _, _, _) -> s = shards) rows with
    | Some (_, _, rate, _) when recommended >= shards + 1 ->
        let sp = rate /. base_rate in
        if sp < need then begin
          Format.printf
            "  FAIL: %d-shard speedup %.2fx < %.1fx (machine has %d domains)@."
            shards sp need recommended;
          exit 1
        end
    | _ ->
        Format.printf
          "  note: %d-shard gate skipped (needs %d domains, machine \
           recommends %d)@."
          shards (shards + 1) recommended
  in
  gate 2 1.6;
  gate 4 2.5

let par_only = Array.exists (fun a -> a = "--par-only") Sys.argv
let shard_only = Array.exists (fun a -> a = "--shard-only") Sys.argv

let () =
  if par_only then bench_par ()
  else if shard_only then bench_shard ()
  else begin
    bench_par ();
    bench_shard ()
  end;
  Format.printf "@.done.@."
