(* midrr-lint: scheduler-specific static analysis over lib/, bin/,
   bench/ and examples/, read from the .cmt/.cmti artifacts of the last
   [dune build].  Exit status 0 when the repo is clean (no finding
   outside the committed baseline, and no missing or stale artifact),
   1 otherwise. *)

open Cmdliner

let root =
  let doc = "Repository root to scan from." in
  Arg.(value & opt dir "." & info [ "root" ] ~docv:"DIR" ~doc)

let dirs =
  let doc =
    "Directory (relative to $(b,--root)) to scan; repeatable.  Defaults \
     to lib, bin, bench and examples."
  in
  Arg.(value & opt_all string [] & info [ "dir" ] ~docv:"DIR" ~doc)

let baseline_path =
  let doc =
    "Baseline file of tolerated pre-existing findings (relative paths \
     resolve against $(b,--root)).  A missing file is an empty baseline."
  in
  Arg.(
    value & opt string "lint.baseline" & info [ "baseline" ] ~docv:"FILE" ~doc)

let json_path =
  let doc = "Also write the report as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let update_baseline =
  let doc =
    "Rewrite the baseline file so every current finding is tolerated, \
     then exit 0.  Ratchet discipline: only use this to shrink the \
     baseline after fixing sites (or to seed it once)."
  in
  Arg.(value & flag & info [ "update-baseline" ] ~doc)

let quiet =
  let doc = "Suppress the per-finding text report (summary line only)." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let build_dir =
  let doc =
    "Build directory to walk for .cmt artifacts (relative paths resolve \
     against $(b,--root))."
  in
  Arg.(
    value
    & opt string "_build/default"
    & info [ "build-dir" ] ~docv:"DIR" ~doc)

let explain =
  let doc =
    "Print what the given rules check and how to fix findings, then \
     exit.  $(docv) is a comma- or space-separated list of rule ids, a \
     range (R1..R9), or $(b,all)."
  in
  Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"RULES" ~doc)

let resolve root path =
  if Filename.is_relative path then Filename.concat root path else path

(* ---- --explain ------------------------------------------------------- *)

let split_spec spec =
  String.map (fun c -> if Char.equal c ',' then ' ' else c) spec
  |> String.split_on_char ' '
  |> List.filter (fun s -> not (String.equal s ""))

(* "R1..R9" -> every rule between the two ids in declaration order *)
let expand_range seg =
  match String.index_opt seg '.' with
  | Some i
    when i + 1 < String.length seg
         && Char.equal seg.[i + 1] '.'
         && i + 2 < String.length seg ->
      let lo = String.sub seg 0 i in
      let hi = String.sub seg (i + 2) (String.length seg - i - 2) in
      let module R = Midrr_lint.Rule in
      (match (R.of_id lo, R.of_id hi) with
      | Some lo, Some hi ->
          let inside = ref false and out = ref [] in
          List.iter
            (fun r ->
              if R.compare r lo = 0 then inside := true;
              if !inside then out := r :: !out;
              if R.compare r hi = 0 then inside := false)
            R.all;
          Ok (List.rev !out)
      | _ -> Error seg)
  | _ -> (
      match Midrr_lint.Rule.of_id seg with
      | Some r -> Ok [ r ]
      | None -> Error seg)

let explain_rules spec =
  let module R = Midrr_lint.Rule in
  let segs = split_spec spec in
  let rules, bad =
    if List.exists (String.equal "all") segs then (R.all, [])
    else
      List.fold_left
        (fun (acc, bad) seg ->
          match expand_range seg with
          | Ok rs -> (acc @ rs, bad)
          | Error seg -> (acc, seg :: bad))
        ([], []) segs
  in
  match bad with
  | _ :: _ ->
      Printf.eprintf "midrr-lint: unknown rule id(s): %s (try R1..%s)\n"
        (String.concat ", " (List.rev bad))
        (R.id (List.nth R.all (List.length R.all - 1)));
      1
  | [] ->
      let rules = List.sort_uniq R.compare rules in
      List.iteri
        (fun i r ->
          if i > 0 then print_newline ();
          Printf.printf "%s — %s\n\n%s\n\nfix: %s\n" (R.id r) (R.title r)
            (R.description r) (R.hint r))
        rules;
      0

(* ---- scanning -------------------------------------------------------- *)

let run root dirs baseline_path json_path update quiet build_dir explain =
  match explain with
  | Some spec -> explain_rules spec
  | None -> (
      let module D = Midrr_lint.Driver in
      let dirs =
        match dirs with [] -> [ "lib"; "bin"; "bench"; "examples" ] | ds -> ds
      in
      let baseline_file = resolve root baseline_path in
      let build_dir = resolve root build_dir in
      if update then begin
        let keys = D.all_keys ~root ~build_dir ~dirs () in
        Midrr_lint.Baseline.save baseline_file ~keys;
        Printf.printf "midrr-lint: wrote %d baseline entr(ies) to %s\n"
          (List.length keys) baseline_file;
        0
      end
      else
        match Midrr_lint.Baseline.load baseline_file with
        | Error msg ->
            Printf.eprintf "midrr-lint: cannot read baseline %s: %s\n"
              baseline_file msg;
            1
        | Ok baseline ->
            let report = D.scan ~root ~build_dir ~dirs ~baseline () in
            Option.iter
              (fun path ->
                let oc = open_out_bin (resolve root path) in
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () -> output_string oc (D.report_to_json report)))
              json_path;
            if quiet then
              Printf.eprintf
                "midrr-lint: %d fresh finding(s), %d source(s) without a \
                 fresh artifact\n"
                (List.length report.findings)
                (List.length report.blocked)
            else Format.eprintf "%a" D.pp_report report;
            if D.clean report then 0 else 1)

let cmd =
  let doc = "scheduler-specific static analysis for the midrr repo" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads the .cmt/.cmti artifacts the last [dune build] left under \
         $(b,--build-dir) for every .ml/.mli under the scanned \
         directories, and enforces the midrr rule set over their typed \
         trees, matching callees by resolved path: R1 no polymorphic \
         compare/equality in hot-path modules; R2 no catch-all exception \
         handlers; R3 no =/<> at type float in flownet/stats; R4 no \
         Obj.magic or warning suppressions; R5 no top-level mutable state \
         and no Domain.spawn outside lib/par; R7 no allocation reachable \
         from the configured decision entry points; R8 no write to shared \
         mutable state from a Par task, however many calls deep; R9 every \
         val of a lib/ interface is referenced by another unit of lib/, \
         bin/, bench/ or examples/.  A source with no artifact, or one \
         older than its text, fails the run.  R6 is retired into R8.  \
         See DESIGN.md section 9.";
      `P
        "Suppress a single site with [@midrr.lint.allow \"R5\"] or \
         tolerate pre-existing findings via the committed baseline file.  \
         $(b,--explain R1..R9) prints the rationale for every rule.";
    ]
  in
  Cmd.v
    (Cmd.info "midrr-lint" ~doc ~man)
    Term.(
      const run $ root $ dirs $ baseline_path $ json_path $ update_baseline
      $ quiet $ build_dir $ explain)

let () = exit (Cmd.eval' cmd)
