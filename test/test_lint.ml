(* Tests for midrr-lint: a fixture corpus typechecked in process, in which
   every rule must trigger and stay quiet where it should (R1-R5 by
   resolved path and type, R7's allocations on the entry reachability
   set, R8's writes from Par tasks however many calls deep, R9's exports
   no other unit references), the allow-attribute and baseline
   mechanics, and a clean-repo assertion over the build's own .cmt
   artifacts, the scan `dune build @lint` gates on. *)

module L = Midrr_lint
module Rule = L.Rule
module Finding = L.Finding
module Config = L.Config
module Baseline = L.Baseline

let hot_file = "lib/core/drr_engine.ml"
let floaty_file = "lib/flownet/maxmin.ml"
let plain_file = "lib/core/oracle.ml"
let fixture_file = "fix.ml"

let unit_input file str =
  { L.Callgraph.in_modname = "Fix"; in_file = file; in_structure = str }

(* [source] typechecked as unit [Fix] of [file], with every rule run on
   it under [config]. *)
let lint ?(config = Config.default) ~file source =
  match L.Typecheck.structure ~filename:file source with
  | Error msg -> Alcotest.failf "fixture does not typecheck: %s" msg
  | Ok str -> fst (L.Typed_engine.analyze ~config [ unit_input file str ])

(* The rules of [findings], one id per finding. *)
let check_rules what expected findings =
  Alcotest.(check (list string))
    what expected
    (List.map (fun (f : Finding.t) -> Rule.id f.rule) findings)

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

(* --- R1: polymorphic primitives in hot-path modules -------------------- *)

let test_r1_compare () =
  check_rules "bare compare" [ "R1" ]
    (lint ~file:hot_file "let sorted xs = List.sort compare xs");
  check_rules "Stdlib.compare" [ "R1" ]
    (lint ~file:hot_file "let c a b = Stdlib.compare a b");
  check_rules "poly equality" [ "R1" ]
    (lint ~file:hot_file "type t = { size : int }\nlet f t = t.size = 0");
  check_rules "poly disequality" [ "R1" ]
    (lint ~file:hot_file "let f a b = a <> b");
  check_rules "Hashtbl.hash" [ "R1" ]
    (lint ~file:hot_file "let h x = Hashtbl.hash x");
  check_rules "List.mem" [ "R1" ]
    (lint ~file:hot_file "let f x xs = List.mem x xs");
  (* callees match by resolved path: the spellings a name match missed *)
  check_rules "Stdlib.Hashtbl.hash" [ "R1" ]
    (lint ~file:hot_file "let h x = Stdlib.Hashtbl.hash x");
  check_rules "Stdlib.List.mem" [ "R1" ]
    (lint ~file:hot_file "let f x xs = Stdlib.List.mem x xs");
  check_rules "through a module alias" [ "R1" ]
    (lint ~file:hot_file "module H = Hashtbl\nlet h x = H.hash x");
  check_rules "through a local module alias" [ "R1" ]
    (lint ~file:hot_file "let h x = let module H = Hashtbl in H.hash x");
  check_rules "through a local alias of a local alias" [ "R1" ]
    (lint ~file:hot_file
       "let h x = let module A = Hashtbl in let module B = A in B.hash x")

let test_r1_scope () =
  check_rules "a local binding that shadows compare is not the primitive" []
    (lint ~file:hot_file
       "let compare = Int.compare\nlet sorted xs = List.sort compare xs");
  check_rules "not a hot-path module" []
    (lint ~file:plain_file "let sorted xs = List.sort compare xs");
  check_rules "typed comparator is fine" []
    (lint ~file:hot_file "let sorted xs = List.sort Int.compare xs");
  check_rules "Int.equal is fine" [] (lint ~file:hot_file "let f t = Int.equal t 0")

(* --- R2: catch-all exception handlers ----------------------------------- *)

let test_r2 () =
  let g = "let g () = 1\n" in
  check_rules "with _ ->" [ "R2" ]
    (lint ~file:plain_file (g ^ "let f () = try g () with _ -> 0"));
  check_rules "catch-all among cases" [ "R2" ]
    (lint ~file:plain_file
       (g ^ "let f () = try g () with Not_found -> 1 | _ -> 0"));
  check_rules "specific exception is fine" []
    (lint ~file:plain_file (g ^ "let f () = try g () with Not_found -> 0"));
  check_rules "named handler is fine (can reraise)" []
    (lint ~file:plain_file (g ^ "let f () = try g () with e -> raise e"))

(* --- R3: = / <> at type float ------------------------------------------- *)

let test_r3 () =
  check_rules "= float literal" [ "R3" ]
    (lint ~file:floaty_file "let f x = x = 0.0");
  check_rules "<> float literal" [ "R3" ]
    (lint ~file:floaty_file "let f x = x <> 1.5");
  check_rules "computed float operand" [ "R3" ]
    (lint ~file:floaty_file "let f a b c = (a +. b) = c");
  check_rules "Float module result" [ "R3" ]
    (lint ~file:floaty_file "let f a b = Float.abs a = b");
  check_rules "Float.t, an abbreviation" [ "R3" ]
    (lint ~file:floaty_file "let f a b c = Float.max a b = c");
  check_rules "operands typed float, whatever their shape" [ "R3" ]
    (lint ~file:floaty_file "let f (a : float) b = a = b");
  check_rules "through a type abbreviation" [ "R3" ]
    (lint ~file:floaty_file "type rate = float\nlet f (a : rate) b = a <> b")

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
  check_rules "Stdlib.Obj.magic" [ "R4" ]
    (lint ~file:plain_file "let f x = Stdlib.Obj.magic x");
  check_rules "item warning attribute" [ "R4" ]
    (lint ~file:plain_file "let f x = x [@@ocaml.warning \"-32\"]");
  check_rules "floating warning attribute" [ "R4" ]
    (lint ~file:plain_file "[@@@warning \"-27\"]\nlet f x = x");
  check_rules "an R4 allow keeps a justified suppression" []
    (lint ~file:plain_file
       "let f x = x [@@ocaml.warning \"-32\"] [@@midrr.lint.allow \"R4\"]");
  (* an executable's interface: R9 does not judge it *)
  let interface source =
    let file = "bin/fix.mli" in
    match L.Typecheck.signature ~filename:file source with
    | Error msg -> Alcotest.failf "fixture does not typecheck: %s" msg
    | Ok signature ->
        fst
          (L.Typed_engine.analyze
             ~interfaces:[ { L.Export_rule.modname = "Fix"; file; signature } ]
             [])
  in
  check_rules "warning attribute in an interface" [ "R4" ]
    (interface "[@@@ocaml.warning \"-32\"]\nval x : int");
  check_rules "file-wide allow in an interface" []
    (interface
       "[@@@midrr.lint.allow \"R4\"]\n[@@@ocaml.warning \"-32\"]\nval x : int")

(* --- R5: top-level mutable state ---------------------------------------- *)

let test_r5 () =
  check_rules "top-level ref" [ "R5" ] (lint ~file:plain_file "let c = ref 0");
  check_rules "top-level Hashtbl" [ "R5" ]
    (lint ~file:plain_file "let tbl = Hashtbl.create 16");
  check_rules "top-level array literal" [ "R5" ]
    (lint ~file:plain_file "let xs = [| 1; 2 |]");
  check_rules "mutable state inside a record" [ "R5" ]
    (lint ~file:plain_file
       "type s = { tbl : (int, int) Hashtbl.t }\n\
        let s = { tbl = Hashtbl.create 4 }");
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

(* --- R6's fixtures: R8 judges Par task closures -------------------------- *)

(* A local executor with the shapes R6's fixtures were written against:
   [Par.run] over an array of thunks, and the fully qualified path. *)
let task_prelude =
  "module Par = struct\n\
  \  let run tasks = Array.map (fun f -> f ()) tasks\n\
  \  let map f xs = List.map f xs\n\
   end\n\
   module Midrr_par = struct module Par = Par end\n"

let task_lint source = lint ~file:plain_file (task_prelude ^ source)

let test_r6 () =
  check_rules "ref write in a task closure" [ "R8" ]
    (task_lint "let f total xs = Par.map (fun x -> total := !total + x) xs");
  check_rules "array write to a captured array" [ "R8" ]
    (task_lint "let f out = Par.run (Array.init 4 (fun i () -> out.(i) <- i))");
  check_rules "mutable-field write to a captured record" [ "R8" ]
    (task_lint
       "type acc = { mutable count : int }\n\
        let f acc xs = Midrr_par.Par.map (fun x -> acc.count <- acc.count + \
        x) xs");
  check_rules "Hashtbl write to a captured table" [ "R8" ]
    (task_lint "let f tbl xs = Par.map (fun x -> Hashtbl.replace tbl x x) xs")

let test_r6_scope () =
  check_rules "closure-local state is fine" []
    (task_lint "let f xs = Par.map (fun x -> let c = ref 0 in c := x; !c) xs");
  check_rules "a named task that writes nothing" []
    (task_lint "let task x = x + 1\nlet f xs = Par.map task xs");
  check_rules "reads of captured state are fine" []
    (task_lint "let f base xs = Par.map (fun x -> base + x) xs");
  check_rules "writes outside Par calls are not R8's business" []
    (task_lint "let f total x = total := !total + x");
  check_rules "match binders count as local" []
    (task_lint
       "let f xs = Par.map (fun x -> match x with Some c -> c := 1 | None -> \
        ()) xs");
  check_rules "allow attribute for provably disjoint writes" []
    (task_lint
       "let f out = Par.run (Array.init 4 (fun i () -> (out.(i) <- i) \
        [@midrr.lint.allow \"R8\"]))")

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

let keyed source findings =
  let lines = String.split_on_char '\n' source |> Array.of_list in
  List.map
    (fun (f : Finding.t) ->
      (f, Baseline.key ~source_line:lines.(f.line - 1) f))
    findings

let test_baseline_ratchet () =
  let source = "let a = ref 0\nlet b = ref 0" in
  let findings = lint ~file:plain_file source in
  Alcotest.(check int) "two R5 findings" 2 (List.length findings);
  let with_keys = keyed source findings in
  (* A baseline holding only the first site: the second stays fresh. *)
  let b1 = Baseline.of_keys [ snd (List.hd with_keys) ] in
  let fresh, baselined, stale = Baseline.apply b1 with_keys in
  Alcotest.(check int) "one absorbed" 1 baselined;
  Alcotest.(check int) "one fresh" 1 (List.length fresh);
  Alcotest.(check int) "no stale" 0 (List.length stale);
  (* both sites baselined: both absorb *)
  let fresh, _, _ =
    Baseline.apply (Baseline.of_keys (List.map snd with_keys)) with_keys
  in
  Alcotest.(check int) "both absorbed" 0 (List.length fresh);
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
  let with_keys = keyed source (lint ~file:plain_file source) in
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
  let source = "let a = ref 0" in
  let with_keys = keyed source (lint ~file:plain_file source) in
  let fresh, _, stale = Baseline.apply (Baseline.of_keys [ ghost ]) with_keys in
  Alcotest.(check int) "the live finding stays fresh" 1 (List.length fresh);
  Alcotest.(check (list (pair string int))) "ghost entry is stale"
    [ (ghost, 1) ] stale

(* --- hot-path config scoping (repo-relative module paths) --------------- *)

let test_hot_path_scoping () =
  let check what expected file =
    Alcotest.(check bool) what expected (Config.is_hot_path Config.default file)
  in
  check "path-scoped entry matches" true "lib/core/drr_engine.ml";
  check "interfaces too" true "lib/core/drr_engine.mli";
  check "other directories stay cold" false "lib/sim/scenario.ml";
  (* a path entry never widens to unrelated twins: lib/obs/metrics must
     not make a lib/core/metrics.ml hot *)
  check "twin basename stays cold under a path-scoped entry" false
    "lib/experiments/drr_engine.ml";
  check "unrelated basename stays cold under a path entry" false
    "lib/experiments/sweep.ml"

(* --- R7: allocating constructs --------------------------------------- *)

(* Entry-rooted config: R7 walks from [Fix.entry]; R8 recognizes the
   fixture's local [Par]. *)
let cfg =
  {
    Config.default with
    typed_entry_points = [ "Fix.entry" ];
    par_task_entries = [ "Par.run"; "Par.map" ];
  }

(* The reachability rules' verdict on a [fix.ml] fixture.  R1-R5 judge
   the same fixture ([let shared = ref 0] is R5's finding too) and are
   tested above. *)
let typed_lint ?config source =
  List.filter
    (fun (f : Finding.t) ->
      match f.rule with
      | Rule.R7 | Rule.R8 | Rule.R9 -> true
      | Rule.R1 | Rule.R2 | Rule.R3 | Rule.R4 | Rule.R5 -> false)
    (lint ?config ~file:fixture_file source)

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
    (typed_lint ~config:cfg "let entry x = x + 1");
  check_rules "a float abbreviation boxes too" [ "R7" ]
    (typed_lint ~config:cfg
       "type rate = float\nlet entry (a : rate) b : rate = a +. b");
  (* a float field of a mixed record is stored boxed, so returning it
     hands back the existing box; arithmetic on it, or a field of an
     all-float record (stored unboxed), makes a new one *)
  let clock = "type t = { mutable clock : float; mutable n : int }\n" in
  check_rules "stored box returned" []
    (typed_lint ~config:cfg (clock ^ "let entry t = t.clock"));
  check_rules "arithmetic on the field still boxes" [ "R7" ]
    (typed_lint ~config:cfg (clock ^ "let entry t = t.clock +. 1.0"));
  check_rules "float record field boxes" [ "R7" ]
    (typed_lint ~config:cfg
       "type t = { a : float; b : float }\nlet entry t = t.a")

let test_r7_hidden_one_call_deep () =
  (* the walk follows the call and blames the helper *)
  let fs =
    typed_lint ~config:cfg "let helper x = [ x ]\nlet entry x = helper x"
  in
  check_rules "allocation one call deep flagged" [ "R7" ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "blamed at the helper's line" 1 f.line

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
let cfg_r8 = { cfg with typed_entry_points = [] }

let par_prelude =
  "module Par = struct\n\
  \  let run ~jobs:_ fs = List.map (fun f -> f ()) fs\n\
  \  let map f xs = Array.map f xs\n\
   end\n"

let r8_lint source = typed_lint ~config:cfg_r8 (par_prelude ^ source)

let test_r8_captured_write () =
  check_rules "write to module-level ref flagged" [ "R8" ]
    (r8_lint
       "let shared = ref 0\n\
        let entry () = Par.run ~jobs:2 [ (fun () -> shared := 1) ]")

let test_r8_hidden_one_call_deep () =
  let fs =
    r8_lint
      "let bump r = r := !r + 1\n\
       let entry () =\n\
      \  let counter = ref 0 in\n\
      \  Par.run ~jobs:2 [ (fun () -> bump counter) ]"
  in
  check_rules "write hidden one call deep flagged" [ "R8" ] fs;
  match fs with
  | [ f ] ->
      Alcotest.(check bool)
        "message names the writing callee" true
        (has_sub ~sub:"Fix.bump" f.message)
  | _ -> ()

let test_r8_transitive_two_deep () =
  (* the summary fixpoint carries the write through two levels *)
  check_rules "write two calls deep flagged" [ "R8" ]
    (r8_lint
       "let poke r = r := 1\n\
        let bump r = poke r\n\
        let entry () =\n\
       \  let counter = ref 0 in\n\
       \  Par.run ~jobs:2 [ (fun () -> bump counter) ]")

let test_r8_task_local_ok () =
  check_rules "task-local mutation is fine" []
    (r8_lint
       "let entry () =\n\
       \  Par.run ~jobs:2 [ (fun () -> let x = ref 0 in x := 1; !x) ]")

let test_r8_atomic_ok () =
  check_rules "Atomic is sanctioned" []
    (r8_lint
       "let hits = Atomic.make 0\n\
        let entry () = Par.run ~jobs:2 [ (fun () -> Atomic.incr hits) ]")

let test_r8_serial_write_ok () =
  (* a write outside any closure literal runs at the call site, serially *)
  check_rules "serial write outside the task is fine" []
    (r8_lint
       "let shared = ref 0\n\
        let entry () = shared := 1; Par.run ~jobs:2 [ (fun () -> 0) ]")

let test_r8_allow () =
  check_rules "file-wide R8 allow" []
    (typed_lint ~config:cfg_r8
       ("[@@@midrr.lint.allow \"R8\"]\n" ^ par_prelude
      ^ "let shared = ref 0\n\
         let entry () = Par.run ~jobs:2 [ (fun () -> shared := 1) ]"))

let test_r8_reachable_global_write () =
  (* an ident task whose callee graph writes module state, with no write
     anywhere inside the task literal *)
  check_rules "global write reachable from task root flagged" [ "R8" ]
    (r8_lint
       "let tally = ref 0\n\
        let log_one x = tally := !tally + x\n\
        let work x = log_one x\n\
        let entry xs = Par.map work xs")

(* The written container is the one the finding names: a blit's
   destination (argument 2), a queue pushed to (argument 1). *)
let check_names what ~written ~read source =
  let fs = r8_lint source in
  check_rules what [ "R8" ] fs;
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool)
        (what ^ ": names the written container") true
        (has_sub ~sub:("[" ^ written ^ "]") f.message);
      Option.iter
        (fun read ->
          Alcotest.(check bool)
            (what ^ ": not the one read") false
            (has_sub ~sub:("[" ^ read ^ "]") f.message))
        read)
    fs

let test_r8_written_argument () =
  check_names "Array.blit" ~written:"out" ~read:(Some "src")
    "let entry src out n =\n\
    \  Par.run ~jobs:2 [ (fun () -> Array.blit src 0 out 0 n) ]";
  check_names "String.blit" ~written:"out" ~read:(Some "s")
    "let entry s out n =\n\
    \  Par.run ~jobs:2 [ (fun () -> String.blit s 0 out 0 n) ]";
  check_names "Queue.push" ~written:"q" ~read:None
    "let entry q = Par.run ~jobs:2 [ (fun () -> Queue.push 1 q) ]"

(* ---- R9: no export without a caller ---------------------------------- *)

(* Unit [Fix] from [ml] and its interface [lib/fix.mli], judged by R9
   against the units [User0], [User1], ... typechecked from [users] with
   [Fix] in scope.  No R7/R8 roots, so R9 alone speaks. *)
let r9_lint ~mli ~ml users =
  let ok what = function
    | Ok x -> x
    | Error msg -> Alcotest.failf "%s does not typecheck: %s" what msg
  in
  let sg = ok "fix.mli" (L.Typecheck.signature ~filename:"lib/fix.mli" mli) in
  let fix =
    unit_input fixture_file
      (ok fixture_file (L.Typecheck.structure ~filename:fixture_file ml))
  in
  let users =
    List.mapi
      (fun i src ->
        let file = Printf.sprintf "user%d.ml" i in
        {
          L.Callgraph.in_modname = Printf.sprintf "User%d" i;
          in_file = file;
          in_structure =
            ok file
              (L.Typecheck.structure ~filename:file
                 ~units:[ ("Fix", sg.sig_type) ] src);
        })
      users
  in
  let interfaces =
    [ { L.Export_rule.modname = "Fix"; file = "lib/fix.mli"; signature = sg } ]
  in
  List.filter
    (fun (f : Finding.t) -> Rule.equal f.rule Rule.R9)
    (fst (L.Typed_engine.analyze ~config:cfg_r8 ~interfaces (fix :: users)))

let test_r9_unreferenced () =
  let fs =
    r9_lint ~mli:"val used : int\nval dead : int"
      ~ml:"let dead = 2\nlet used = dead" [ "let x = Fix.used" ]
  in
  (* [dead] is used, but only by its own unit *)
  check_rules "unreferenced export flagged" [ "R9" ] fs;
  match fs with
  | [ f ] ->
      Alcotest.(check string) "on the interface" "lib/fix.mli" f.file;
      Alcotest.(check int) "at the val" 2 f.line;
      Alcotest.(check bool)
        "message names the export" true
        (String.starts_with ~prefix:"[Fix.dead]" f.message)
  | _ -> ()

let test_r9_other_unit_clears () =
  check_rules "a reference from another unit clears it" []
    (r9_lint ~mli:"val used : int\nval dead : int"
       ~ml:"let used = 1\nlet dead = 2"
       [ "let x = Fix.used"; "let () = print_int Fix.dead" ]);
  check_rules "so does one through a local module alias" []
    (r9_lint ~mli:"val used : int" ~ml:"let used = 1"
       [ "let x = let module F = Fix in F.used" ])

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

(* ---- baseline ratchet over a reachability finding -------------------- *)

let test_typed_baseline_ratchet () =
  let source = "let entry x = Some x" in
  let fs = typed_lint ~config:cfg source in
  check_rules "finding present" [ "R7" ] fs;
  let with_keys = keyed source fs in
  (* baselined: absorbed, nothing fresh, nothing stale *)
  let baseline = Baseline.of_keys (List.map snd with_keys) in
  let fresh, absorbed, stale = Baseline.apply baseline with_keys in
  Alcotest.(check int) "fresh" 0 (List.length fresh);
  Alcotest.(check int) "absorbed" 1 absorbed;
  Alcotest.(check int) "stale" 0 (List.length stale);
  (* ratchet: the entry outlives the fix as a stale report *)
  let fresh, absorbed, stale = Baseline.apply baseline [] in
  Alcotest.(check int) "fresh after fix" 0 (List.length fresh);
  Alcotest.(check int) "absorbed after fix" 0 absorbed;
  Alcotest.(check int) "stale after fix" 1 (List.length stale)

(* --- the real repo stays clean ------------------------------------------ *)

(* Under `dune runtest` the cwd is _build/default/test, where the
   declared source-tree deps and the build's artifacts sit one level up;
   under `dune exec` from a checkout the repo root is the cwd, and the
   artifacts are under _build/default. *)
let repo_root, build_dir =
  let looks_like_root d =
    Sys.file_exists (Filename.concat d "lint.baseline")
    && Sys.file_exists (Filename.concat d "lib")
  in
  match List.find_opt looks_like_root [ ".."; "."; "../.."; "../../.." ] with
  | Some d ->
      let b = Filename.concat d "_build/default" in
      (d, if Sys.file_exists b then b else d)
  | None -> Alcotest.failf "cannot locate repo root from %s" (Sys.getcwd ())

let test_clean_repo () =
  let baseline =
    match Baseline.load (Filename.concat repo_root "lint.baseline") with
    | Ok b -> b
    | Error msg -> Alcotest.failf "cannot load lint.baseline: %s" msg
  in
  let report =
    L.Driver.scan ~root:repo_root ~build_dir
      ~dirs:[ "lib"; "bin"; "bench"; "examples" ]
      ~baseline ()
  in
  List.iter
    (fun file -> Alcotest.failf "no fresh artifact for %s" file)
    report.blocked;
  (match report.findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "fresh finding: %s:%d [%s] %s (run dune build @lint)"
        f.file f.line (Rule.id f.rule) f.message);
  Alcotest.(check (list (pair string int))) "no stale baseline entries" []
    report.stale_baseline;
  if report.units < 100 then
    Alcotest.failf "suspiciously few units loaded: %d" report.units

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
          (* R6 is retired: its fixtures are R8's *)
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
          Alcotest.test_case "hot-path scoping" `Quick test_hot_path_scoping;
        ] );
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
          Alcotest.test_case "written-argument" `Quick test_r8_written_argument;
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
      ( "repo",
        [ Alcotest.test_case "clean under baseline" `Quick test_clean_repo ] );
    ]
