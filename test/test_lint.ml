(* Tests for the midrr-lint static-analysis pass: a bad-fixture corpus in
   which every rule must trigger, suppression/baseline mechanics, and a
   clean-repo assertion mirroring the `dune build @lint` gate. *)

module Rule = Midrr_lint.Rule
module Finding = Midrr_lint.Finding
module Config = Midrr_lint.Config
module Baseline = Midrr_lint.Baseline
module Driver = Midrr_lint.Driver

let hot_file = "lib/core/drr_engine.ml"
let floaty_file = "lib/flownet/maxmin.ml"
let plain_file = "lib/core/oracle.ml"

let lint ?config ~file source = Driver.lint_string ?config ~file source

let rules_of findings =
  List.map (fun (f : Finding.t) -> Rule.id f.rule) findings
  |> List.sort_uniq String.compare

let check_rules what expected findings =
  Alcotest.(check (list string)) what expected (rules_of findings)

(* --- R1: polymorphic primitives in hot-path modules -------------------- *)

let test_r1_compare () =
  check_rules "bare compare" [ "R1" ]
    (lint ~file:hot_file "let sorted xs = List.sort compare xs");
  check_rules "Stdlib.compare" [ "R1" ]
    (lint ~file:hot_file "let c a b = Stdlib.compare a b");
  check_rules "poly equality" [ "R1" ]
    (lint ~file:hot_file "let f t = t.size = 0");
  check_rules "poly disequality" [ "R1" ]
    (lint ~file:hot_file "let f a b = a <> b");
  check_rules "Hashtbl.hash" [ "R1" ]
    (lint ~file:hot_file "let h x = Hashtbl.hash x");
  check_rules "List.mem" [ "R1" ]
    (lint ~file:hot_file "let f x xs = List.mem x xs")

let test_r1_scope () =
  check_rules "not a hot-path module" []
    (lint ~file:plain_file "let sorted xs = List.sort compare xs");
  check_rules "typed comparator is fine" []
    (lint ~file:hot_file "let sorted xs = List.sort Int.compare xs");
  check_rules "Int.equal is fine" [] (lint ~file:hot_file "let f t = Int.equal t 0")

(* --- R2: catch-all exception handlers ----------------------------------- *)

let test_r2 () =
  check_rules "with _ ->" [ "R2" ]
    (lint ~file:plain_file "let f () = try g () with _ -> 0");
  check_rules "catch-all among cases" [ "R2" ]
    (lint ~file:plain_file
       "let f () = try g () with Not_found -> 1 | _ -> 0");
  check_rules "specific exception is fine" []
    (lint ~file:plain_file "let f () = try g () with Not_found -> 0");
  check_rules "named handler is fine (can reraise)" []
    (lint ~file:plain_file "let f () = try g () with e -> raise e")

(* --- R3: float equality on computed values ------------------------------ *)

let test_r3 () =
  check_rules "= float literal" [ "R3" ]
    (lint ~file:floaty_file "let f x = x = 0.0");
  check_rules "<> float literal" [ "R3" ]
    (lint ~file:floaty_file "let f x = x <> 1.5");
  check_rules "computed float operand" [ "R3" ]
    (lint ~file:floaty_file "let f a b c = (a +. b) = c");
  check_rules "Float module result" [ "R3" ]
    (lint ~file:floaty_file "let f a b = Float.abs a = b")

let test_r3_scope () =
  check_rules "int comparison is fine" []
    (lint ~file:floaty_file "let f x = x = 0");
  check_rules "only in flownet/stats" []
    (lint ~file:"lib/sim/scenario.ml" "let f x = x = 0.0");
  check_rules "Float.equal is the fix" []
    (lint ~file:floaty_file "let f x = Float.equal x 0.0")

(* --- R4: Obj.magic and warning suppressions ----------------------------- *)

let test_r4 () =
  check_rules "Obj.magic" [ "R4" ]
    (lint ~file:plain_file "let f x = Obj.magic x");
  check_rules "item warning attribute" [ "R4" ]
    (lint ~file:plain_file "let f x = x [@@ocaml.warning \"-32\"]");
  check_rules "floating warning attribute" [ "R4" ]
    (lint ~file:plain_file "[@@@warning \"-27\"]\nlet f x = x");
  check_rules "allowlisted file may suppress warnings" []
    (lint
       ~config:
         { Config.default with warning_allowlist = [ plain_file ] }
       ~file:plain_file "let f x = x [@@ocaml.warning \"-32\"]")

(* --- R5: top-level mutable state ---------------------------------------- *)

let test_r5 () =
  check_rules "top-level ref" [ "R5" ] (lint ~file:plain_file "let c = ref 0");
  check_rules "top-level Hashtbl" [ "R5" ]
    (lint ~file:plain_file "let tbl = Hashtbl.create 16");
  check_rules "top-level array literal" [ "R5" ]
    (lint ~file:plain_file "let xs = [| 1; 2 |]");
  check_rules "mutable state inside a record" [ "R5" ]
    (lint ~file:plain_file "let s = { tbl = Hashtbl.create 4 }");
  check_rules "nested module counts" [ "R5" ]
    (lint ~file:plain_file "module M = struct let c = ref 0 end")

let test_r5_scope () =
  check_rules "inside a function is fine" []
    (lint ~file:plain_file "let make () = ref 0");
  check_rules "Atomic is the domain-safe fix" []
    (lint ~file:plain_file "let c = Atomic.make 0");
  check_rules "empty array literal is immutable" []
    (lint ~file:plain_file "let xs = [||]")

let test_r5_domain_spawn () =
  check_rules "Domain.spawn outside lib/par" [ "R5" ]
    (lint ~file:plain_file
       "let f () = Domain.join (Domain.spawn (fun () -> 1))");
  check_rules "the executor layer may spawn" []
    (lint ~file:"lib/par/par.ml"
       "let f () = Domain.join (Domain.spawn (fun () -> 1))");
  check_rules "other Domain functions are fine" []
    (lint ~file:plain_file "let n () = Domain.recommended_domain_count ()");
  check_rules "allow attribute masks a justified spawn" []
    (lint ~file:plain_file
       "let f g = (Domain.spawn g [@midrr.lint.allow \"R5\"])")

(* --- R6: shared mutable capture in Par task closures --------------------- *)

let test_r6 () =
  check_rules "ref write in a task closure" [ "R6" ]
    (lint ~file:plain_file
       "let f total xs = Par.map (fun x -> total := !total + x) xs");
  check_rules "array write to a captured array" [ "R6" ]
    (lint ~file:plain_file
       "let f out = Par.run (Array.init 4 (fun i () -> out.(i) <- i))");
  check_rules "mutable-field write to a captured record" [ "R6" ]
    (lint ~file:plain_file
       "let f acc xs = Midrr_par.Par.map (fun x -> acc.count <- acc.count + \
        x) xs");
  check_rules "Hashtbl write to a captured table" [ "R6" ]
    (lint ~file:plain_file
       "let f tbl xs = Par.map (fun x -> Hashtbl.replace tbl x x) xs")

let test_r6_scope () =
  check_rules "closure-local state is fine" []
    (lint ~file:plain_file
       "let f xs = Par.map (fun x -> let c = ref 0 in c := x; !c) xs");
  check_rules "a named task function is out of syntactic reach" []
    (lint ~file:plain_file "let f xs = Par.map task xs");
  check_rules "reads of captured state are fine" []
    (lint ~file:plain_file "let f base xs = Par.map (fun x -> base + x) xs");
  check_rules "writes outside Par calls are not R6's business" []
    (lint ~file:plain_file "let f total x = total := !total + x");
  check_rules "match binders count as local" []
    (lint ~file:plain_file
       "let f xs = Par.map (fun x -> match x with Some c -> c := 1 | None -> \
        ()) xs");
  check_rules "allow attribute for provably disjoint writes" []
    (lint ~file:plain_file
       "let f out = Par.run (Array.init 4 (fun i () -> (out.(i) <- i) \
        [@midrr.lint.allow \"R6\"]))")

(* --- suppression mechanics ---------------------------------------------- *)

let test_allow_attribute () =
  check_rules "per-binding allow" []
    (lint ~file:plain_file "let c = ref 0 [@midrr.lint.allow \"R5\"]");
  check_rules "allow lists several rules" []
    (lint ~file:plain_file "let c = ref 0 [@midrr.lint.allow \"R1, R5\"]");
  check_rules "allow for the wrong rule does not mask" [ "R5" ]
    (lint ~file:plain_file "let c = ref 0 [@midrr.lint.allow \"R1\"]");
  check_rules "file-wide floating allow" []
    (lint ~file:hot_file
       "[@@@midrr.lint.allow \"R1\"]\nlet sorted xs = List.sort compare xs");
  check_rules "expression-scoped allow" []
    (lint ~file:floaty_file
       "let f sq = if ((sq = 0.0) [@midrr.lint.allow \"R3\"]) then 0 else 1")

let test_baseline_ratchet () =
  let source = "let a = ref 0\nlet b = ref 0" in
  let findings = lint ~file:plain_file source in
  Alcotest.(check int) "two R5 findings" 2 (List.length findings);
  let lines = String.split_on_char '\n' source |> Array.of_list in
  let with_keys =
    List.map
      (fun (f : Finding.t) ->
        (f, Baseline.key ~source_line:lines.(f.line - 1) f))
      findings
  in
  (* A baseline holding only the first site: the second stays fresh. *)
  let b1 = Baseline.of_keys [ snd (List.hd with_keys) ] in
  let fresh, baselined, stale = Baseline.apply b1 with_keys in
  Alcotest.(check int) "one absorbed" 1 baselined;
  Alcotest.(check int) "one fresh" 1 (List.length fresh);
  Alcotest.(check int) "no stale" 0 (List.length stale);
  (* Multiset semantics: identical line text needs one entry per site. *)
  let keys = List.map snd with_keys in
  Alcotest.(check bool) "same key (same normalized text)" true
    (match keys with
    | [ k1; k2 ] ->
        (* Different line numbers but identical normalized content would
           give different keys only through the text, which differs here
           (a vs b).  Check both absorb fully when both are baselined. *)
        let fresh, _, _ =
          Baseline.apply (Baseline.of_keys [ k1; k2 ]) with_keys
        in
        List.length fresh = 0
    | _ -> false);
  (* Ratchet: a stale entry is reported once the site is fixed. *)
  let _, _, stale =
    Baseline.apply (Baseline.of_keys [ "R5\tghost.ml\tlet g = ref 0" ]) with_keys
  in
  Alcotest.(check int) "stale entry surfaces" 1 (List.length stale)

let test_baseline_normalization () =
  Alcotest.(check string)
    "whitespace collapses" "let a = ref 0"
    (Baseline.normalize_line "  let   a =\tref 0  ");
  Alcotest.(check string)
    "CRLF line endings strip" "let a = ref 0"
    (Baseline.normalize_line "let a = ref 0\r");
  (* a CRLF checkout and a re-indented site still hit the same key *)
  let f =
    {
      Finding.rule = Rule.R5;
      file = plain_file;
      line = 1;
      col = 0;
      message = "top-level mutable state";
    }
  in
  Alcotest.(check string)
    "key survives CRLF + reindent"
    (Baseline.key ~source_line:"let a = ref 0" f)
    (Baseline.key ~source_line:"\tlet  a  =  ref 0\r" f)

let test_baseline_duplicates () =
  let source = "let a = ref 0" in
  let findings = lint ~file:plain_file source in
  let with_keys =
    List.map (fun (f : Finding.t) -> (f, Baseline.key ~source_line:source f))
      findings
  in
  let k = snd (List.hd with_keys) in
  (* multiset: a duplicated line only covers one site; the extra copy is
     stale, not silently pooled *)
  let fresh, absorbed, stale = Baseline.apply (Baseline.of_keys [ k; k ]) with_keys in
  Alcotest.(check int) "fresh" 0 (List.length fresh);
  Alcotest.(check int) "absorbed" 1 absorbed;
  Alcotest.(check (list (pair string int))) "extra copy is stale" [ (k, 1) ] stale

let test_baseline_deleted_file () =
  (* an entry pointing at a file that no longer exists matches nothing
     and must surface as stale — deleting the file does not launder the
     debt out of the ratchet silently *)
  let ghost = "R5\tlib/deleted/gone.ml\tlet g = ref 0" in
  let findings = lint ~file:plain_file "let a = ref 0" in
  let with_keys =
    List.map
      (fun (f : Finding.t) -> (f, Baseline.key ~source_line:"let a = ref 0" f))
      findings
  in
  let fresh, _, stale = Baseline.apply (Baseline.of_keys [ ghost ]) with_keys in
  Alcotest.(check int) "the live finding stays fresh" 1 (List.length fresh);
  Alcotest.(check (list (pair string int))) "ghost entry is stale"
    [ (ghost, 1) ] stale

let test_baseline_filter () =
  let keys =
    [
      "R5\tlib/a.ml\tlet a = ref 0";
      "R7\tlib/b.ml\tlet b = Some 1";
      "garbage-without-tabs";
    ]
  in
  Alcotest.(check (option string))
    "rule_of_key parses" (Some "R7")
    (Option.map Rule.id (Baseline.rule_of_key (List.nth keys 1)));
  Alcotest.(check (option string))
    "rule_of_key rejects garbage" None
    (Option.map Rule.id (Baseline.rule_of_key (List.nth keys 2)));
  (* filtering away R7 removes that entry from stale reporting: an
     untyped-only run cannot judge rules it did not execute *)
  let keep_untyped k =
    match Baseline.rule_of_key k with
    | Some (Rule.R7 | Rule.R8) -> false
    | Some _ | None -> true
  in
  let b = Baseline.filter keep_untyped (Baseline.of_keys keys) in
  let _, _, stale = Baseline.apply b [] in
  Alcotest.(check int) "R7 entry filtered out" 2 (List.length stale);
  Alcotest.(check bool) "the R7 key is gone" false
    (List.exists (fun (k, _) -> String.equal k (List.nth keys 1)) stale)

(* --- hot-path config scoping (path entries with basename fallback) ------ *)

let test_hot_path_scoping () =
  let to_str = function
    | Config.Hot_path -> "path"
    | Config.Hot_basename_deprecated -> "basename"
    | Config.Not_hot -> "not"
  in
  let check what expected file =
    Alcotest.(check string) what expected
      (to_str (Config.hot_path_match Config.default file))
  in
  check "path-scoped entry matches" "path" "lib/core/drr_engine.ml";
  check "interfaces too" "path" "lib/core/drr_engine.mli";
  check "other directories stay cold" "not" "lib/sim/scenario.ml";
  (* only bare (slash-free) legacy entries fall back to basename
     matching — hot for safety, with a driver warning so the entry gets
     path-scoped; a path entry must never widen to unrelated twins
     (lib/obs/metrics must not make a lib/core/metrics.ml hot) *)
  let bare = { Config.default with hot_path_modules = [ "drr_engine" ] } in
  Alcotest.(check string)
    "bare entry hits any directory" "basename"
    (to_str (Config.hot_path_match bare "lib/experiments/drr_engine.ml"));
  check "twin basename stays cold under a path-scoped entry" "not"
    "lib/experiments/drr_engine.ml";
  check "unrelated basename stays cold under a path entry" "not"
    "lib/experiments/sweep.ml";
  Alcotest.(check string)
    "module_path_of_file strips extension" "lib/core/drr_engine"
    (Config.module_path_of_file "lib/core/drr_engine.ml")

(* --- the real repo stays clean ------------------------------------------ *)

(* Under `dune runtest` the cwd is _build/default/test and the declared
   source-tree deps sit one level up; under `dune exec` from a checkout
   the repo root may be the cwd itself or further up. *)
let repo_root =
  let looks_like_root d =
    Sys.file_exists (Filename.concat d "lint.baseline")
    && Sys.file_exists (Filename.concat d "lib")
  in
  match List.find_opt looks_like_root [ ".."; "."; "../.."; "../../.." ] with
  | Some d -> d
  | None -> Alcotest.failf "cannot locate repo root from %s" (Sys.getcwd ())

let test_clean_repo () =
  let baseline =
    match Baseline.load (Filename.concat repo_root "lint.baseline") with
    | Ok b -> b
    | Error msg -> Alcotest.failf "cannot load lint.baseline: %s" msg
  in
  (* the committed baseline also carries typed-tier (R7/R8) entries; an
     untyped scan cannot judge those, so drop them as the CLI does *)
  let baseline =
    Baseline.filter
      (fun k ->
        match Baseline.rule_of_key k with
        | Some (Rule.R7 | Rule.R8) -> false
        | Some _ | None -> true)
      baseline
  in
  let report =
    Driver.scan ~root:repo_root ~dirs:[ "lib"; "bin"; "bench" ] ~baseline ()
  in
  List.iter
    (fun (file, msg) -> Alcotest.failf "unparseable %s: %s" file msg)
    report.parse_errors;
  (match report.findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "fresh finding: %s:%d [%s] %s (run dune build @lint)"
        f.file f.line (Rule.id f.rule) f.message);
  Alcotest.(check (list (pair string int))) "no stale baseline entries" []
    report.stale_baseline;
  if report.files_scanned < 100 then
    Alcotest.failf "suspiciously few files scanned: %d" report.files_scanned

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 triggers" `Quick test_r1_compare;
          Alcotest.test_case "R1 scope" `Quick test_r1_scope;
          Alcotest.test_case "R2 triggers" `Quick test_r2;
          Alcotest.test_case "R3 triggers" `Quick test_r3;
          Alcotest.test_case "R3 scope" `Quick test_r3_scope;
          Alcotest.test_case "R4 triggers" `Quick test_r4;
          Alcotest.test_case "R5 triggers" `Quick test_r5;
          Alcotest.test_case "R5 scope" `Quick test_r5_scope;
          Alcotest.test_case "R5 Domain.spawn" `Quick test_r5_domain_spawn;
          Alcotest.test_case "R6 triggers" `Quick test_r6;
          Alcotest.test_case "R6 scope" `Quick test_r6_scope;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "allow attribute" `Quick test_allow_attribute;
          Alcotest.test_case "baseline ratchet" `Quick test_baseline_ratchet;
          Alcotest.test_case "normalization" `Quick test_baseline_normalization;
          Alcotest.test_case "duplicate entries" `Quick test_baseline_duplicates;
          Alcotest.test_case "deleted-file entries" `Quick
            test_baseline_deleted_file;
          Alcotest.test_case "filter by rule" `Quick test_baseline_filter;
          Alcotest.test_case "hot-path scoping" `Quick test_hot_path_scoping;
        ] );
      ( "repo",
        [ Alcotest.test_case "clean under baseline" `Quick test_clean_repo ] );
    ]
