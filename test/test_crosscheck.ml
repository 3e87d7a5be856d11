(* Cross-check: the static R7 verdict against the runtime allocation
   counter, on the same build.

   The typed tier claims the Drr_engine decision path is allocation-free
   by reachability over the .cmt call graph, event emission included:
   the engine refills one event record, and R7 has no carve-out for
   events.  The bench's alloc gate claims the same thing empirically: a
   [next_packet_noalloc] decision moves zero minor words, sinkless and
   with the [Busmetrics] fold attached through a stamped sink.  Each claim has a failure mode the
   other catches — the static walk can under-approximate (a deny-list
   external it does not know, flambda-dependent boxing), the counter can
   only ever sample one workload.  This executable runs both against the
   current build and fails if they disagree, or if either side regressed.

   Runs from the build root via `dune build @crosscheck` (the alias rule
   in the root dune file), where the materialized sources and the .cmt
   trees coexist; it is not part of plain `dune runtest`. *)

module L = Midrr_lint
module T = Midrr_lint_typed
module Drr_engine = Midrr_core.Drr_engine
module Packet = Midrr_core.Packet
module Busmetrics = Midrr_obs.Busmetrics

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* ---- side 1: the static verdict -------------------------------------- *)

(* Root the reachability walk at the serve-decision entries only: the
   gate below exercises exactly this path.  The wider default entry set
   (Pifo, Recorder, ...) is @lint-typed's business, with its own
   baseline; here the verdict must be unconditional. *)
let decide_entries = [ "Drr_engine.decide"; "Drr_engine.next_packet_noalloc" ]

let static_verdict () =
  let config =
    {
      L.Config.default with
      typed_entry_points = decide_entries;
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
  List.map fst keyed

(* ---- side 2: the runtime counter ------------------------------------- *)

(* The bench's fastpath_alloc_gate recipe (bench/main.ml): queues
   prefilled deeper than the decision count so no flow drains inside the
   measured window — every decision is a pure pop through
   [next_packet_noalloc].  [Gc.minor_words] itself boxes its result, so
   below a hundredth of a word per decision is genuinely zero.  With
   [~fold], the [Busmetrics] fold is attached through a sink stamped by
   a clock that returns a pre-boxed time, as [Engine.now] does. *)
let measured_words_per_decision ~fold =
  let n_flows = 64 and n_ifaces = 4 in
  let decisions = 20_000 in
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
  let warmup = decisions / 10 in
  let per_flow = ((decisions + warmup) / n_flows) + 64 in
  for f = 0 to n_flows - 1 do
    for _ = 1 to per_flow do
      ignore
        (Drr_engine.enqueue t (Packet.create ~flow:f ~size:1000 ~arrival:0.0))
    done
  done;
  for d = 0 to warmup - 1 do
    ignore (Drr_engine.next_packet_noalloc t (d mod n_ifaces))
  done;
  let w0 = Gc.minor_words () in
  for d = 0 to decisions - 1 do
    ignore (Drr_engine.next_packet_noalloc t (d mod n_ifaces))
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int decisions

(* ---- agreement -------------------------------------------------------- *)

let () =
  let findings = static_verdict () in
  let statically_clean = match findings with [] -> true | _ -> false in
  List.iter
    (fun (f : L.Finding.t) ->
      Printf.eprintf "crosscheck: static R7 finding %s:%d %s\n" f.file f.line
        f.message)
    findings;
  let sinkless = measured_words_per_decision ~fold:false in
  let folded = measured_words_per_decision ~fold:true in
  let words = Float.max sinkless folded in
  let empirically_clean = words < 0.01 in
  Printf.printf
    "crosscheck: static=%s empirical=%.4f sinkless, %.4f with the fold, \
     minor words/decision\n"
    (if statically_clean then "clean" else "findings")
    sinkless folded;
  match (statically_clean, empirically_clean) with
  | true, true ->
      print_endline
        "crosscheck: R7-clean decision path confirmed allocation-free"
  | true, false ->
      fail
        "crosscheck: DISAGREEMENT — static R7 says clean but the gate \
         measured %.4f minor words/decision (an allocating construct the \
         typed walk does not model?)"
        words
  | false, true ->
      fail
        "crosscheck: static R7 findings on the decision path (above); the \
         gate still reads zero, so the walk may have grown a false positive \
         — fix the site or the classifier, do not baseline it here"
  | false, false ->
      fail
        "crosscheck: decision path regressed on both sides — %.4f minor \
         words/decision and static findings (above)"
        words
