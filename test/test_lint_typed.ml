(* The typed lint tier (R7-R9) against an in-process-typechecked fixture
   corpus: allocating constructs on the entry reachability set, mutable
   writes hidden one call deep from a Par task (the case the untyped R6
   provably misses), exports no other unit references, allow-attribute
   suppression, and the shared baseline ratchet. *)

module L = Midrr_lint
module T = Midrr_lint_typed

let fixture_file = "fix.ml"

let typed_lint ?config source =
  match T.Typecheck.structure ~filename:fixture_file source with
  | Error msg -> Alcotest.failf "fixture does not typecheck: %s" msg
  | Ok str ->
      let ui =
        {
          T.Typed_engine.ui_modname = "Fix";
          ui_file = fixture_file;
          ui_structure = str;
        }
      in
      fst (T.Typed_engine.analyze ?config [ ui ])

(* Entry-rooted config: R7 walks from [Fix.entry]; R8 recognizes the
   fixture's local [Par]. *)
let cfg =
  {
    L.Config.default with
    typed_entry_points = [ "Fix.entry" ];
    par_task_entries = [ "Par.run"; "Par.map" ];
  }

let rules fs = List.map (fun (f : L.Finding.t) -> f.rule) fs

let check_rules what expected fs =
  Alcotest.(check (list string))
    what expected
    (List.map L.Rule.id (rules fs))

(* ---- R7: allocating constructs --------------------------------------- *)

let test_r7_closure () =
  check_rules "closure flagged" [ "R7" ]
    (typed_lint ~config:cfg
       "let entry xs = List.iter (fun x -> ignore x) xs")

let test_r7_tuple () =
  check_rules "tuple flagged" [ "R7" ]
    (typed_lint ~config:cfg "let entry a b = (a, b)");
  check_rules "match-scrutinee tuple exempt" []
    (typed_lint ~config:cfg
       "let entry a b = match (a, b) with x, y -> x + y")

let test_r7_some () =
  check_rules "Some wrapping flagged" [ "R7" ]
    (typed_lint ~config:cfg "let entry x = Some x")

let test_r7_partial_application () =
  check_rules "partial application flagged" [ "R7" ]
    (typed_lint ~config:cfg
       "let add a b = a + b\nlet entry x = add x");
  check_rules "total call stays quiet" []
    (typed_lint ~config:cfg
       "let add a b = a + b\nlet entry x = add x 1")

let test_r7_list_build () =
  check_rules "list building flagged" [ "R7" ]
    (typed_lint ~config:cfg "let entry n = List.init n succ")

let test_r7_boxed_float_return () =
  check_rules "boxed-float return flagged" [ "R7" ]
    (typed_lint ~config:cfg "let entry x = x +. 1.0");
  check_rules "int return stays quiet" []
    (typed_lint ~config:cfg "let entry x = x + 1")

let test_r7_hidden_one_call_deep () =
  let source = "let helper x = [ x ]\nlet entry x = helper x" in
  (* the typed tier follows the call and blames the helper *)
  let fs = typed_lint ~config:cfg source in
  check_rules "allocation one call deep flagged" [ "R7" ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "blamed at the helper's line" 1 f.line;
  (* the untyped tier has no view of this at all: no rule fires *)
  let untyped = L.Driver.lint_string ~file:fixture_file source in
  check_rules "untyped tier is blind to it" [] untyped

let test_r7_allow () =
  check_rules "binding-level allow" []
    (typed_lint ~config:cfg
       "let helper x = [ x ] [@@midrr.lint.allow \"R7\"]\n\
        let entry x = helper x");
  check_rules "expression-level allow" []
    (typed_lint ~config:cfg
       "let entry x = (Some x [@midrr.lint.allow \"R7\"])");
  check_rules "file-wide allow" []
    (typed_lint ~config:cfg
       "[@@@midrr.lint.allow \"R7\"]\nlet entry x = Some x");
  check_rules "allow for another rule does not leak" [ "R7" ]
    (typed_lint ~config:cfg
       "let entry x = (Some x [@midrr.lint.allow \"R8\"])")

(* No carve-out for the event path: an event built under a root is an
   allocation like any other, while refilling a producer-owned record is
   a store. *)
let test_r7_event_constructor () =
  check_rules "event constructor flagged" [ "R7" ]
    (typed_lint ~config:cfg
       "module Event = struct type t = Serve of int end\n\
        let entry s x = s (Event.Serve x)");
  check_rules "refilled event record clean" []
    (typed_lint ~config:cfg
       "type record = { mutable flow : int }\n\
        let entry s r x =\n\
       \  r.flow <- x;\n\
       \  s r")

let test_r7_raise_path_cold () =
  check_rules "invalid_arg message is a cold path" []
    (typed_lint ~config:cfg
       "let entry x = if x < 0 then invalid_arg (string_of_int x) else x")

let test_r7_unreachable_not_scanned () =
  check_rules "allocations off the entry set stay quiet" []
    (typed_lint ~config:cfg
       "let unrelated x = Some x\nlet entry x = x + 1")

(* ---- R8: interprocedural domain-safety ------------------------------- *)

(* R8-only fixtures: no R7 roots, so the task-building closures and
   lists in [entry] do not add allocation noise to the expectations. *)
let cfg_r8 = { cfg with L.Config.typed_entry_points = [] }

let par_prelude =
  "module Par = struct\n\
  \  let run ~jobs:_ fs = List.map (fun f -> f ()) fs\n\
  \  let map f xs = Array.map f xs\n\
   end\n"

let test_r8_captured_write () =
  let fs =
    typed_lint ~config:cfg_r8
      (par_prelude
     ^ "let shared = ref 0\n\
        let entry () = Par.run ~jobs:2 [ (fun () -> shared := 1) ]")
  in
  check_rules "write to module-level ref flagged" [ "R8" ] fs

let test_r8_hidden_one_call_deep () =
  let source =
    par_prelude
    ^ "let bump r = r := !r + 1\n\
       let entry () =\n\
      \  let counter = ref 0 in\n\
      \  Par.run ~jobs:2 [ (fun () -> bump counter) ]"
  in
  let fs = typed_lint ~config:cfg_r8 source in
  check_rules "write hidden one call deep flagged" [ "R8" ] fs;
  (match fs with
  | [ f ] ->
      let has_sub ~sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        "message names the writing callee" true
        (has_sub ~sub:"Fix.bump" f.message)
  | _ -> ());
  (* the untyped R6 only sees writes textually inside the closure: it
     provably misses the call-through mutation *)
  let untyped = L.Driver.lint_string ~file:fixture_file source in
  check_rules "untyped R6 misses it" []
    (List.filter (fun (f : L.Finding.t) -> L.Rule.compare f.rule L.Rule.R6 = 0)
       untyped)

let test_r8_transitive_two_deep () =
  (* the summary fixpoint carries the write through two levels *)
  check_rules "write two calls deep flagged" [ "R8" ]
    (typed_lint ~config:cfg_r8
       (par_prelude
      ^ "let poke r = r := 1\n\
         let bump r = poke r\n\
         let entry () =\n\
        \  let counter = ref 0 in\n\
        \  Par.run ~jobs:2 [ (fun () -> bump counter) ]"))

let test_r8_task_local_ok () =
  check_rules "task-local mutation is fine" []
    (typed_lint ~config:cfg_r8
       (par_prelude
      ^ "let entry () =\n\
        \  Par.run ~jobs:2 [ (fun () -> let x = ref 0 in x := 1; !x) ]"))

let test_r8_atomic_ok () =
  check_rules "Atomic is sanctioned" []
    (typed_lint ~config:cfg_r8
       (par_prelude
      ^ "let hits = Atomic.make 0\n\
         let entry () = Par.run ~jobs:2 [ (fun () -> Atomic.incr hits) ]"))

let test_r8_serial_write_ok () =
  (* a write outside any closure literal runs at the call site, serially *)
  check_rules "serial write outside the task is fine" []
    (typed_lint ~config:cfg_r8
       (par_prelude
      ^ "let shared = ref 0\n\
         let entry () = shared := 1; Par.run ~jobs:2 [ (fun () -> 0) ]"))

let test_r8_allow () =
  check_rules "file-wide R8 allow" []
    (typed_lint ~config:cfg_r8
       ("[@@@midrr.lint.allow \"R8\"]\n" ^ par_prelude
      ^ "let shared = ref 0\n\
         let entry () = Par.run ~jobs:2 [ (fun () -> shared := 1) ]"))

let test_r8_reachable_global_write () =
  (* an ident task whose callee graph writes module state, with no write
     anywhere inside the task literal *)
  let fs =
    typed_lint ~config:cfg_r8
      (par_prelude
     ^ "let tally = ref 0\n\
        let log_one x = tally := !tally + x\n\
        let work x = log_one x\n\
        let entry xs = Par.map work xs")
  in
  check_rules "global write reachable from task root flagged" [ "R8" ] fs

(* ---- R9: no export without a caller ---------------------------------- *)

(* Unit [Fix] from [ml] and its interface [mli], judged by R9 against
   the units [User0], [User1], ... typechecked from [users] with [Fix]
   in scope.  No R7/R8 roots, so R9 alone speaks. *)
let r9_lint ~mli ~ml users =
  let ok what = function
    | Ok x -> x
    | Error msg -> Alcotest.failf "%s does not typecheck: %s" what msg
  in
  let sg = ok "fix.mli" (T.Typecheck.signature ~filename:"fix.mli" mli) in
  let unit_input modname file str =
    { T.Typed_engine.ui_modname = modname; ui_file = file; ui_structure = str }
  in
  let fix =
    unit_input "Fix" fixture_file
      (ok fixture_file (T.Typecheck.structure ~filename:fixture_file ml))
  in
  let users =
    List.mapi
      (fun i src ->
        let file = Printf.sprintf "user%d.ml" i in
        unit_input (Printf.sprintf "User%d" i) file
          (ok file
             (T.Typecheck.structure ~filename:file
                ~units:[ ("Fix", sg.sig_type) ] src)))
      users
  in
  let interfaces =
    [ { T.Export_rule.modname = "Fix"; file = "fix.mli"; signature = sg } ]
  in
  fst (T.Typed_engine.analyze ~config:cfg_r8 ~interfaces (fix :: users))

let test_r9_unreferenced () =
  let fs =
    r9_lint ~mli:"val used : int\nval dead : int"
      ~ml:"let dead = 2\nlet used = dead" [ "let x = Fix.used" ]
  in
  (* [dead] is used, but only by its own unit *)
  check_rules "unreferenced export flagged" [ "R9" ] fs;
  match fs with
  | [ f ] ->
      Alcotest.(check string) "on the interface" "fix.mli" f.file;
      Alcotest.(check int) "at the val" 2 f.line;
      Alcotest.(check bool)
        "message names the export" true
        (String.length f.message >= 10
        && String.equal (String.sub f.message 0 10) "[Fix.dead]")
  | _ -> ()

let test_r9_other_unit_clears () =
  check_rules "a reference from another unit clears it" []
    (r9_lint ~mli:"val used : int\nval dead : int"
       ~ml:"let used = 1\nlet dead = 2"
       [ "let x = Fix.used"; "let () = print_int Fix.dead" ])

let test_r9_functor_include () =
  let ml =
    "module Make (P : sig val x : int end) = struct\n\
    \  let create () = P.x\n\
     end\n\
     include Make (struct let x = 1 end)"
  in
  let mli = "val create : unit -> int" in
  check_rules "a value a functor include brings in, referenced" []
    (r9_lint ~mli ~ml [ "let y = Fix.create ()" ]);
  check_rules "the same value, unreferenced" [ "R9" ] (r9_lint ~mli ~ml [])

let test_r9_allow () =
  check_rules "R9 allow clears it" []
    (r9_lint ~mli:"val dead : int [@@midrr.lint.allow \"R9\"]"
       ~ml:"let dead = 2" []);
  check_rules "an allow for another rule does not" [ "R9" ]
    (r9_lint ~mli:"val dead : int [@@midrr.lint.allow \"R7\"]"
       ~ml:"let dead = 2" [])

(* ---- baseline ratchet over typed findings ---------------------------- *)

let test_typed_baseline_ratchet () =
  let source = "let entry x = Some x" in
  let fs = typed_lint ~config:cfg source in
  check_rules "finding present" [ "R7" ] fs;
  let lines = String.split_on_char '\n' source |> Array.of_list in
  let with_keys =
    List.map
      (fun (f : L.Finding.t) ->
        (f, L.Baseline.key ~source_line:lines.(f.line - 1) f))
      fs
  in
  (* baselined: absorbed, nothing fresh, nothing stale *)
  let baseline = L.Baseline.of_keys (List.map snd with_keys) in
  let fresh, absorbed, stale = L.Baseline.apply baseline with_keys in
  Alcotest.(check int) "fresh" 0 (List.length fresh);
  Alcotest.(check int) "absorbed" 1 absorbed;
  Alcotest.(check int) "stale" 0 (List.length stale);
  (* ratchet: the entry outlives the fix as a stale report *)
  let fresh, absorbed, stale = L.Baseline.apply baseline [] in
  Alcotest.(check int) "fresh after fix" 0 (List.length fresh);
  Alcotest.(check int) "absorbed after fix" 0 absorbed;
  Alcotest.(check int) "stale after fix" 1 (List.length stale)

let () =
  Alcotest.run "midrr-lint-typed"
    [
      ( "r7",
        [
          Alcotest.test_case "closure" `Quick test_r7_closure;
          Alcotest.test_case "tuple" `Quick test_r7_tuple;
          Alcotest.test_case "some" `Quick test_r7_some;
          Alcotest.test_case "partial-app" `Quick test_r7_partial_application;
          Alcotest.test_case "list-build" `Quick test_r7_list_build;
          Alcotest.test_case "boxed-float" `Quick test_r7_boxed_float_return;
          Alcotest.test_case "hidden-one-call-deep" `Quick
            test_r7_hidden_one_call_deep;
          Alcotest.test_case "allow" `Quick test_r7_allow;
          Alcotest.test_case "event-constructor" `Quick
            test_r7_event_constructor;
          Alcotest.test_case "raise-path-cold" `Quick test_r7_raise_path_cold;
          Alcotest.test_case "unreachable-quiet" `Quick
            test_r7_unreachable_not_scanned;
        ] );
      ( "r8",
        [
          Alcotest.test_case "captured-write" `Quick test_r8_captured_write;
          Alcotest.test_case "hidden-one-call-deep" `Quick
            test_r8_hidden_one_call_deep;
          Alcotest.test_case "transitive-two-deep" `Quick
            test_r8_transitive_two_deep;
          Alcotest.test_case "task-local-ok" `Quick test_r8_task_local_ok;
          Alcotest.test_case "atomic-ok" `Quick test_r8_atomic_ok;
          Alcotest.test_case "serial-write-ok" `Quick test_r8_serial_write_ok;
          Alcotest.test_case "allow" `Quick test_r8_allow;
          Alcotest.test_case "reachable-global-write" `Quick
            test_r8_reachable_global_write;
        ] );
      ( "r9",
        [
          Alcotest.test_case "unreferenced-flagged" `Quick test_r9_unreferenced;
          Alcotest.test_case "other-unit-clears" `Quick
            test_r9_other_unit_clears;
          Alcotest.test_case "functor-include" `Quick test_r9_functor_include;
          Alcotest.test_case "allow" `Quick test_r9_allow;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "typed-ratchet" `Quick
            test_typed_baseline_ratchet;
        ] );
    ]
