(* midrr-lint: scheduler-specific static analysis over lib/, bin/,
   bench/ and examples/.  Exit status 0 when the repo is clean (no
   finding outside the committed baseline, no parse error, and — with
   --typed — no missing or stale .cmt artifact), 1 otherwise. *)

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
     baseline after fixing sites (or to seed it once).  With \
     $(b,--typed), the written baseline covers both tiers."
  in
  Arg.(value & flag & info [ "update-baseline" ] ~doc)

let quiet =
  let doc = "Suppress the per-finding text report (summary line only)." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let typed =
  let doc =
    "Also run the typed tier (R7 static zero-allocation, R8 \
     interprocedural domain-safety, R9 no export without a caller) over \
     the .cmt artifacts a normal \
     [dune build] leaves under $(b,--build-dir).  Both tiers share the \
     baseline file."
  in
  Arg.(value & flag & info [ "typed" ] ~doc)

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
      Printf.eprintf "midrr-lint: unknown rule id(s): %s (try R1..R%d)\n"
        (String.concat ", " (List.rev bad))
        (List.length R.all);
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

let typed_collect ~root ~build_dir ~dirs =
  Midrr_lint_typed.Typed_driver.collect_keys ~root ~build_dir ~dirs ()

let run root dirs baseline_path json_path update quiet typed build_dir explain
    =
  match explain with
  | Some spec -> explain_rules spec
  | None -> (
      let dirs =
        match dirs with [] -> [ "lib"; "bin"; "bench"; "examples" ] | ds -> ds
      in
      let baseline_file = resolve root baseline_path in
      let build_dir = resolve root build_dir in
      if update then begin
        let keys = Midrr_lint.Driver.all_keys ~root ~dirs () in
        let keys =
          if typed then
            keys
            @ Midrr_lint_typed.Typed_driver.all_keys ~root ~build_dir ~dirs ()
          else keys
        in
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
            (* an untyped-only run neither applies nor reports R7-R9
               baseline entries: it cannot judge rules it did not run *)
            let baseline =
              if typed then baseline
              else
                Midrr_lint.Baseline.filter
                  (fun k ->
                    match Midrr_lint.Baseline.rule_of_key k with
                    | Some Midrr_lint.Rule.(R7 | R8 | R9) -> false
                    | Some _ | None -> true)
                  baseline
            in
            let files_scanned, untyped_keys, parse_errors, warnings =
              Midrr_lint.Driver.collect_keys ~root ~dirs ()
            in
            let typed_keys, typed_warnings, blocked_cmts =
              if typed then
                let _units, keys, warns, blocked =
                  typed_collect ~root ~build_dir ~dirs
                in
                (keys, warns, blocked)
              else ([], [], [])
            in
            let with_keys =
              List.sort
                (fun ((a : Midrr_lint.Finding.t), _) (b, _) ->
                  Midrr_lint.Finding.compare a b)
                (untyped_keys @ typed_keys)
            in
            let findings, baselined, stale_baseline =
              Midrr_lint.Baseline.apply baseline with_keys
            in
            let report =
              {
                Midrr_lint.Driver.files_scanned;
                findings;
                baselined;
                stale_baseline;
                parse_errors;
                warnings = warnings @ typed_warnings;
              }
            in
            Option.iter
              (fun path ->
                let oc = open_out_bin (resolve root path) in
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () ->
                    output_string oc
                      (Midrr_lint.Driver.report_to_json report)))
              json_path;
            if quiet then
              Printf.eprintf
                "midrr-lint: %d fresh finding(s), %d parse error(s)\n"
                (List.length report.findings)
                (List.length report.parse_errors)
            else Format.eprintf "%a" Midrr_lint.Driver.pp_report report;
            (match blocked_cmts with
            | [] -> ()
            | fs ->
                Printf.eprintf
                  "midrr-lint: %d source(s) without a fresh .cmt artifact \
                   under %s — the typed tier cannot certify them.  Run [dune \
                   build] and retry.\n"
                  (List.length fs) build_dir);
            if
              Midrr_lint.Driver.clean report
              && (match blocked_cmts with [] -> true | _ -> false)
            then 0
            else 1)

let cmd =
  let doc = "scheduler-specific static analysis for the midrr repo" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Walks every .ml/.mli under the scanned directories and enforces \
         the midrr rule set: R1 no polymorphic compare/equality in \
         hot-path modules; R2 no catch-all exception handlers; R3 no \
         float =/<> on computed values in flownet/stats; R4 no Obj.magic \
         or warning suppressions; R5 no top-level mutable state outside \
         the declared allowlist; R6 no captured-state writes in Par \
         tasks.  See DESIGN.md section 9.";
      `P
        "With $(b,--typed), a second tier runs over the .cmt artifacts of \
         the last [dune build]: R7 proves the configured decision entry \
         points allocation-free by reachability over the resolved call \
         graph, R8 makes the domain-safety check interprocedural, and R9 \
         requires every val of a lib/ interface to be referenced by \
         another unit of lib/, bin/, bench/ or examples/.  See DESIGN.md \
         section 13.";
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
      $ quiet $ typed $ build_dir $ explain)

let () = exit (Cmd.eval' cmd)
