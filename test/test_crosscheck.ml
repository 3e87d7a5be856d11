(* Cross-check: the static R7 verdict against the runtime allocation
   counter, on the same build.

   The typed tier claims the Drr_engine decision and enqueue paths are
   allocation-free by reachability over the .cmt call graph, event
   emission included: the engine refills one event record, and R7 has no
   carve-out for events.  The runtime gates below claim the same thing
   empirically: a [next_packet_noalloc] decision and an [enqueue] of a
   prebuilt packet each move zero minor words, sinkless and with the
   [Busmetrics] fold attached through a stamped sink.  Each
   claim has a failure mode the other catches — the static walk can
   under-approximate (a deny-list external it does not know,
   flambda-dependent boxing), the counter can only ever sample one
   workload.  This executable runs both against the current build and
   fails if they disagree, or if either side regressed.

   The registry hot ops, R7 roots of their own, get the runtime side
   only: each must move zero minor words per call.

   Runs from the build root via `dune build @crosscheck` (the alias rule
   in the root dune file), where the materialized sources and the .cmt
   trees coexist; it is not part of plain `dune runtest`. *)

module L = Midrr_lint
module T = Midrr_lint_typed
module Drr_engine = Midrr_core.Drr_engine
module Packet = Midrr_core.Packet
module Busmetrics = Midrr_obs.Busmetrics
module Metrics = Midrr_obs.Metrics

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* ---- side 1: the static verdict -------------------------------------- *)

(* Root the reachability walk at the serve-decision and enqueue entries
   only: the gates below exercise exactly these paths.  The wider default
   entry set (Pifo, Metrics, ...) is @lint-typed's business, with its own
   baseline; here the verdict must be unconditional. *)
let engine_entries =
  [
    "Drr_engine.decide"; "Drr_engine.next_packet_noalloc"; "Drr_engine.enqueue";
  ]

let static_verdict () =
  let config =
    {
      L.Config.default with
      typed_entry_points = engine_entries;
      par_task_entries = [] (* R7 only: the gate measures allocation *);
    }
  in
  let units, keyed, warnings, blocked =
    T.Typed_driver.collect_keys ~config ~root:"." ~build_dir:"." ~dirs:[ "lib" ]
      ()
  in
  List.iter (Printf.eprintf "crosscheck: %s\n") warnings;
  (match blocked with
  | [] -> ()
  | fs ->
      fail "crosscheck: %d source(s) without a fresh .cmt — run [dune build]"
        (List.length fs));
  if units < 10 then fail "crosscheck: suspiciously few units loaded: %d" units;
  (* R7's verdict only: the other typed rules judge lib/ against callers
     this lib-only load does not see *)
  List.filter_map
    (fun ((f : L.Finding.t), _) ->
      if L.Rule.equal f.rule L.Rule.R7 then Some f else None)
    keyed

(* ---- side 2: the runtime counter ------------------------------------- *)

(* Minor words per call of [op], over [calls] calls after [calls / 10]
   warm-up calls.  [Gc.minor_words] itself boxes its result, so below a
   hundredth of a word per call is genuinely zero. *)
let measured_words_per_call ~calls op =
  for i = 0 to (calls / 10) - 1 do
    op i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to calls - 1 do
    op i
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int calls

let n_flows = 64
let n_ifaces = 4

(* An engine of [n_flows] flows on [n_ifaces] interfaces.  With [~fold],
   the [Busmetrics] fold is attached through a sink stamped by a clock
   that returns a pre-boxed time, as [Engine.now] does. *)
let engine ~fold =
  let t = Drr_engine.create Drr_engine.Service_flags in
  (if fold then
     let now = ref 1.0 in
     Drr_engine.set_sink t
       (Some
          (Midrr_obs.Sink.stamp
             ~clock:(fun () -> !now)
             (Busmetrics.sink (Busmetrics.create ())))));
  for j = 0 to n_ifaces - 1 do
    Drr_engine.add_iface t j
  done;
  let all_ifaces = List.init n_ifaces Fun.id in
  for f = 0 to n_flows - 1 do
    Drr_engine.add_flow t ~flow:f ~weight:1.0 ~allowed:all_ifaces
  done;
  t

let packets n =
  Array.init n (fun i ->
      Packet.create ~flow:(i mod n_flows) ~size:1000 ~arrival:0.0)

let drain t =
  for j = 0 to n_ifaces - 1 do
    while not (Packet.is_none (Drr_engine.next_packet_noalloc t j)) do
      ()
    done
  done

(* Queues prefilled deeper than the decision count so no flow drains
   inside the measured window — every decision is a pure pop through
   [next_packet_noalloc]. *)
let measured_words_per_decision ~fold =
  let decisions = 20_000 in
  let t = engine ~fold in
  let per_flow = ((decisions + (decisions / 10)) / n_flows) + 64 in
  Array.iter
    (fun p -> ignore (Drr_engine.enqueue t p))
    (packets (per_flow * n_flows));
  measured_words_per_call ~calls:decisions (fun d ->
      ignore (Drr_engine.next_packet_noalloc t (d mod n_ifaces)))

(* Enqueues of prebuilt packets into pools that a first backlog as deep
   as the measured one has grown (and the decisions then drained): the
   measured window reuses freed slots and allocates no packet. *)
let measured_words_per_enqueue ~fold =
  let calls = 20_000 in
  let t = engine ~fold in
  let pkts = packets (calls + (calls / 10)) in
  Array.iter (fun p -> ignore (Drr_engine.enqueue t p)) pkts;
  drain t;
  measured_words_per_call ~calls (fun i ->
      ignore (Drr_engine.enqueue t pkts.(i)))

(* The five registry hot ops, each called with the arguments a producer
   passes: a float literal is static data (no caller-side boxing), and
   computed values cross the boundary as int nanoseconds. *)
let registry_ops () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "crosscheck_ops" in
  let g = Metrics.gauge reg "crosscheck_level" in
  let h = Metrics.histogram reg "crosscheck_lat" in
  [
    ("Metrics.incr", fun _ -> Metrics.incr reg c);
    ("Metrics.add", fun i -> Metrics.add reg c (i land 7));
    ("Metrics.set_gauge", fun _ -> Metrics.set_gauge reg g 1.0);
    ("Metrics.observe", fun _ -> Metrics.observe reg h 0.5);
    ( "Metrics.observe_ns",
      fun i -> Metrics.observe_ns reg h ((i land 0xfffff) + 1) );
  ]

(* ---- agreement -------------------------------------------------------- *)

let () =
  let findings = static_verdict () in
  let statically_clean = match findings with [] -> true | _ -> false in
  List.iter
    (fun (f : L.Finding.t) ->
      Printf.eprintf "crosscheck: static R7 finding %s:%d %s\n" f.file f.line
        f.message)
    findings;
  let measured what measure =
    let sinkless = measure ~fold:false in
    let folded = measure ~fold:true in
    Printf.printf
      "crosscheck: static=%s empirical=%.4f sinkless, %.4f with the fold, \
       minor words/%s\n"
      (if statically_clean then "clean" else "findings")
      sinkless folded what;
    Float.max sinkless folded
  in
  let decision = measured "decision" measured_words_per_decision in
  let words =
    Float.max decision (measured "enqueue" measured_words_per_enqueue)
  in
  let empirically_clean = words < 0.01 in
  (match (statically_clean, empirically_clean) with
  | true, true ->
      print_endline
        "crosscheck: R7-clean decision and enqueue paths confirmed \
         allocation-free"
  | true, false ->
      fail
        "crosscheck: DISAGREEMENT — static R7 says clean but the gates \
         measured %.4f minor words per call (an allocating construct the \
         typed walk does not model?)"
        words
  | false, true ->
      fail
        "crosscheck: static R7 findings on the decision or enqueue path \
         (above); the gates still read zero, so the walk may have grown a \
         false positive — fix the site or the classifier, do not baseline \
         it here"
  | false, false ->
      fail
        "crosscheck: decision or enqueue path regressed on both sides — \
         %.4f minor words per call and static findings (above)"
        words);
  let allocating =
    List.filter_map
      (fun (name, op) ->
        let words = measured_words_per_call ~calls:200_000 op in
        Printf.printf "crosscheck: %s %.4f minor words/op\n" name words;
        if words < 0.01 then None else Some name)
      (registry_ops ())
  in
  if allocating <> [] then
    fail "crosscheck: registry op(s) allocate %s >= 0.01 minor words/op"
      (String.concat ", " allocating);
  print_endline "crosscheck: registry hot ops confirmed allocation-free"
