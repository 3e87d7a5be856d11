(* The layered benchmark: one workload per process.  See README.md. *)

open Bench_suite
module H = Harness
module W = Workloads

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE] \
   [--smoke] [--scenarios DIR]\n\
   workloads: " ^ String.concat ", " W.names

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref "0" and smoke = ref false and scenarios = ref "scenarios" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ( "--seconds",
        Arg.Set_int seconds,
        "S scales the rep counts, which are sized for S = 10 (default 10)" );
      ( "--trace",
        Arg.Set_string trace,
        "0|1|FILE 1 reports the per-layer metrics of a traced run; a file \
         name also writes them there with the fingerprint (default 0)" );
      ("--smoke", Arg.Set smoke, " 2 reps and a 1% fleet (the test size)");
      ("--scenarios", Arg.Set_string scenarios, "DIR corpus directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload W.names) then begin
    prerr_endline usage;
    exit 2
  end;
  if !seconds < 1 then begin
    prerr_endline "--seconds must be at least 1";
    exit 2
  end;
  let cfg =
    {
      H.seed = !seed;
      seconds = !seconds;
      smoke = !smoke;
      scenarios = !scenarios;
    }
  in
  let traced = not (String.equal !trace "0") in
  let p = W.prepare cfg !workload in
  let phase = H.run_phase ~reps:p.reps p.rep in
  let failed = H.failures ~check:p.check phase.outcomes in
  let correct, attempted, failed, metrics =
    if traced then
      let t = p.trace () in
      let layers =
        W.complete_layers
          (p.setup_layers
          @ H.phase_layers ~pkts_per_rep:p.pkts_per_rep phase
          @ t.layers)
      in
      (failed + t.failed = 0, p.reps + t.attempted, failed + t.failed, layers)
    else
      ( failed = 0,
        p.reps,
        failed,
        H.e2e_metrics ~setup_s:p.setup_s ~pkts_per_rep:p.pkts_per_rep phase )
  in
  let fingerprint = H.fingerprint cfg in
  Printf.printf
    "{\"workload\":%S,\"fingerprint\":%s,\"reps\":%d,\"pkts_per_rep\":%d,\"traced\":%b}\n"
    !workload fingerprint p.reps p.pkts_per_rep traced;
  let line = H.result_line ~correct ~attempted ~failed metrics in
  if traced && not (String.equal !trace "1") then
    Out_channel.with_open_text !trace (fun oc ->
        Printf.fprintf oc
          "{\"workload\":%S,\"fingerprint\":%s,\"correct\":%b,\"metrics\":%s}\n"
          !workload fingerprint correct (H.json_metrics metrics));
  print_endline line;
  exit (if correct then 0 else 1)
