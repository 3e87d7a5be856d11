(* The programmable scheduling substrate, tested three ways:

   1. [Pifo] against a sorted-list model under random op sequences —
      (rank, key) order, arbitrary removes and bounded pops included.
   2. Golden churn transcripts: WFQ and round robin ([Prog_wfq],
      [Prog_rr]) driven through long randomized churn (enqueues, serves,
      flow/iface add/remove, weight and preference changes), with the
      full event stream and observable state after every step digested
      and checked against digests recorded from the bespoke engines the
      programs replaced.
   3. Semantic spot checks of the other programs:
      strict priority, SRPT, EDF, LSTF.
   4. The substrate's per-flow footprint under WFQ and round robin. *)

open Midrr_core
module Event = Midrr_obs.Event
module Packed = Sched_intf.Packed

(* --- 1. Pifo vs sorted-list model ---------------------------------------- *)

(* The heap orders by (rank, key); keys are unique, so the model's
   minimum is unique too. *)
let model_before (ka, ra) (kb, rb) =
  let c = Float.compare ra rb in
  if c = 0 then ka < kb else c < 0

let model_min model =
  List.fold_left
    (fun best e ->
      match best with
      | None -> Some e
      | Some b -> if model_before e b then Some e else Some b)
    None model

let prop_pifo_model =
  (* ops: 0-2 push, 3-4 pop, 5 remove, 6 pop_at_most, 7 min/mem audit *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 300) (triple (int_range 0 7) (int_range 0 15) (int_range 0 4)))
  in
  QCheck.Test.make ~count:200 ~name:"pifo matches sorted-list model"
    (QCheck.make gen) (fun ops ->
      let h = Pifo.create ~capacity:2 () in
      let model = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      let take k = model := List.filter (fun (k', _) -> k' <> k) !model in
      let cell = { Pifo.v = 0.0 } in
      let min_rank h =
        Pifo.min_rank h cell;
        cell.v
      in
      List.iter
        (fun (op, key, r) ->
          let rank = Float.of_int r in
          match op with
          | 0 | 1 | 2 ->
              if not (Pifo.mem h key) then begin
                Pifo.push h ~key ~rank:{ v = rank };
                model := (key, rank) :: !model
              end
          | 3 | 4 -> (
              let rank = min_rank h in
              match (Pifo.pop_key h, model_min !model) with
              | -1, None -> ()
              | key, Some (k, mr) ->
                  check (key = k && Float.equal rank mr);
                  take k
              | _ -> check false)
          | 5 ->
              let removed = Pifo.remove h key in
              check (removed = List.mem_assoc key !model);
              take key
          | 6 -> (
              (* [rank] doubles as the bound *)
              match (Pifo.pop_at_most h { v = rank }, model_min !model) with
              | -1, None -> ()
              | -1, Some (_, mr) -> check (mr > rank)
              | key, Some (k, mr) ->
                  check (key = k && mr <= rank);
                  take k
              | _ -> check false)
          | _ -> (
              check (Pifo.length h = List.length !model);
              check (Pifo.is_empty h = (!model = []));
              for k = 0 to 15 do
                check (Pifo.mem h k = List.mem_assoc k !model)
              done;
              match model_min !model with
              | None ->
                  check (Float.equal (min_rank h) infinity);
                  check (Pifo.min_key h = -1)
              | Some (k, mr) ->
                  check (Float.equal (min_rank h) mr);
                  check (Pifo.min_key h = k)))
        ops;
      (* Drain both; full order must agree. *)
      let rec drain () =
        match (Pifo.pop_key h, model_min !model) with
        | -1, None -> ()
        | key, Some (k, _) ->
            check (key = k);
            take k;
            drain ()
        | _ -> check false
      in
      drain ();
      !ok)

let pifo_key_ties () =
  let h = Pifo.create () in
  List.iter (fun k -> Pifo.push h ~key:k ~rank:{ v = 1.0 }) [ 7; 3; 9; 1 ];
  Pifo.push h ~key:5 ~rank:{ v = 0.5 };
  let order = ref [] in
  let rec go () =
    match Pifo.pop_key h with
    | -1 -> ()
    | key ->
        order := key :: !order;
        go ()
  in
  go ();
  Alcotest.(check (list int))
    "rank first, then the smaller key" [ 5; 1; 3; 7; 9 ] (List.rev !order)

let pifo_errors () =
  let h = Pifo.create () in
  Pifo.push h ~key:3 ~rank:{ v = 0.5 };
  Alcotest.check_raises "duplicate push" (Invalid_argument "Pifo.push: duplicate key")
    (fun () -> Pifo.push h ~key:3 ~rank:{ v = 0.7 });
  Alcotest.check_raises "negative key" (Invalid_argument "Pifo.push: negative key")
    (fun () -> Pifo.push h ~key:(-1) ~rank:{ v = 0.0 });
  Alcotest.(check bool) "remove absent" false (Pifo.remove h 9);
  Alcotest.(check bool) "remove present" true (Pifo.remove h 3);
  Alcotest.(check bool) "now empty" true (Pifo.is_empty h);
  Alcotest.(check int) "empty pops -1" (-1) (Pifo.pop_key h);
  let min = { Pifo.v = 0.0 } in
  Pifo.min_rank h min;
  Alcotest.(check (float 0.0)) "empty min is infinity" infinity min.v

(* --- 2. golden churn transcripts ------------------------------------------ *)

(* WFQ and round robin were once implemented twice, as bespoke engines
   and as the programs [Prog_wfq]/[Prog_rr], held lockstep-equal on this
   churn.  [golden/churn_digests.txt] was recorded from the bespoke
   engines before they were deleted; the programs must reproduce each
   seed's transcript exactly.  The transcript carries every event, every
   enqueue verdict and serve decision, and the full observable state
   after every step, so its digest pins the whole run. *)

let max_flows = 32
let iface_pool = [ 0; 1; 2; 3; 4 ]

let churn_transcript ~seed ~steps s =
  let st = Random.State.make [| seed |] in
  let rand n = Random.State.int st n in
  let pick l = List.nth l (rand (List.length l)) in
  let b = Buffer.create (1 lsl 20) in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  Packed.set_sink s
    (Some (fun e -> line "%s" (Format.asprintf "%a" Event.pp (Event.decode e))));
  let ints l = String.concat "," (List.map string_of_int l) in
  let state () =
    line "flows %s ifaces %s" (ints (Packed.flows s)) (ints (Packed.ifaces s));
    List.iter
      (fun f ->
        line "flow %d backlog %d/%d %b served %d allowed %s on %s" f
          (Packed.backlog_bytes s f) (Packed.backlog_packets s f)
          (Packed.is_backlogged s f) (Packed.served_bytes s f)
          (ints (Packed.allowed_ifaces s f))
          (ints
             (List.map
                (fun j -> Packed.served_bytes_on s ~flow:f ~iface:j)
                iface_pool)))
      (Packed.flows s)
  in
  let flows = ref []
  and ifaces = ref []
  and next_flow = ref 0
  and retired = ref []
  and clock = ref 0.0 in
  let fresh_flow_id () =
    match !retired with
    | id :: rest when rand 3 = 0 ->
        retired := rest;
        id
    | _ ->
        let id = !next_flow in
        incr next_flow;
        id
  in
  let random_allowed () =
    let all = List.filter (fun _ -> rand 3 > 0) iface_pool in
    if all = [] then [ pick iface_pool ] else all
  in
  let add_flow () =
    if List.length !flows < max_flows then begin
      let id = fresh_flow_id () in
      let weight = 0.5 +. (float_of_int (rand 8) /. 2.0) in
      Packed.add_flow s ~flow:id ~weight ~allowed:(random_allowed ());
      flows := id :: !flows
    end
  in
  let add_iface () =
    match List.filter (fun j -> not (List.mem j !ifaces)) iface_pool with
    | [] -> ()
    | offline ->
        let j = pick offline in
        Packed.add_iface s j;
        ifaces := j :: !ifaces
  in
  let enqueue flow size =
    let pkt = Packet.create ~flow ~size ~arrival:!clock in
    line "enqueue %d %dB -> %b" flow size (Packed.enqueue s pkt)
  in
  let serve j =
    match Packed.next_packet s j with
    | None ->
        line "serve %d idle" j;
        false
    | Some (q : Packet.t) ->
        line "serve %d flow %d %dB @%h" j q.flow q.size q.arrival;
        true
  in
  add_iface ();
  add_iface ();
  add_flow ();
  add_flow ();
  for step = 0 to steps - 1 do
    line "step %d" step;
    clock := !clock +. 0.001;
    (match rand 100 with
    | n when n < 34 -> if !flows <> [] then enqueue (pick !flows) (64 + rand 1437)
    | n when n < 74 -> if !ifaces <> [] then ignore (serve (pick !ifaces) : bool)
    | n when n < 80 -> add_flow ()
    | n when n < 84 ->
        if !flows <> [] then begin
          let f = pick !flows in
          Packed.remove_flow s f;
          flows := List.filter (fun g -> g <> f) !flows;
          retired := f :: !retired
        end
    | n when n < 88 -> add_iface ()
    | n when n < 91 ->
        if !ifaces <> [] then begin
          let j = pick !ifaces in
          Packed.remove_iface s j;
          ifaces := List.filter (fun k -> k <> j) !ifaces
        end
    | n when n < 95 ->
        if !flows <> [] then
          Packed.set_weight s (pick !flows) (0.5 +. (float_of_int (rand 10) /. 2.0))
    | n when n < 98 ->
        if !flows <> [] then
          Packed.set_allowed s (pick !flows) (random_allowed ())
    | _ -> (* unknown flow: rejected with a Drop event *) enqueue 9999 700);
    state ()
  done;
  (* Drain every interface to idle. *)
  List.iter
    (fun j ->
      let budget = ref 200_000 in
      while !budget > 0 && serve j do
        decr budget
      done)
    !ifaces;
  state ();
  Buffer.contents b

let seeds =
  [ 0xA1; 0xB2; 0xC3; 0xD4; 0xE5; 0xF6; 0x1A7; 0x2B8; 0x3C9; 0x4DA; 0x5EB; 0x6FC ]

let churn_steps = 5_000

(* `dune runtest` runs from the test directory, `dune exec` from the
   project root; accept either. *)
let golden_digests_path =
  if Sys.file_exists "golden/churn_digests.txt" then "golden/churn_digests.txt"
  else "test/golden/churn_digests.txt"

let golden_digests =
  lazy
    (In_channel.with_open_text golden_digests_path In_channel.input_lines
    |> List.map (fun l -> Scanf.sscanf l "%s %i %s" (fun name seed d -> ((name, seed), d))))

let churn_golden name make () =
  List.iter
    (fun seed ->
      let got =
        Digest.to_hex
          (Digest.string (churn_transcript ~seed ~steps:churn_steps (make ())))
      in
      match List.assoc_opt (name, seed) (Lazy.force golden_digests) with
      | None -> Alcotest.failf "%s seed %#x: no golden digest" name seed
      | Some want ->
          Alcotest.(check string) (Printf.sprintf "%s seed %#x" name seed) want got)
    seeds

(* --- 3. semantic spot checks --------------------------------------------- *)

let setup packed ~flows =
  Packed.add_iface packed 0;
  List.iter
    (fun (f, weight) -> Packed.add_flow packed ~flow:f ~weight ~allowed:[ 0 ])
    flows;
  packed

let enq packed ~flow ~size ~arrival =
  assert (Packed.enqueue packed (Packet.create ~flow ~size ~arrival))

let serve_order packed n =
  List.init n (fun _ ->
      match Packed.next_packet packed 0 with
      | Some pkt -> pkt.Packet.flow
      | None -> Alcotest.fail "unexpected idle")

let sprio_semantics () =
  let s = setup (Prog_sprio.packed (Prog_sprio.create ())) ~flows:[ (0, 1.0); (1, 5.0) ] in
  for _ = 1 to 3 do
    enq s ~flow:0 ~size:100 ~arrival:0.0;
    enq s ~flow:1 ~size:100 ~arrival:0.0
  done;
  Alcotest.(check (list int))
    "heavier flow drains first" [ 1; 1; 1; 0; 0; 0 ] (serve_order s 6);
  (* raising a weight mid-run re-ranks the backlog *)
  enq s ~flow:0 ~size:100 ~arrival:1.0;
  enq s ~flow:1 ~size:100 ~arrival:1.0;
  Packed.set_weight s 0 9.0;
  Alcotest.(check (list int)) "weight change re-ranks" [ 0; 1 ] (serve_order s 2)

let srpt_semantics () =
  let s = setup (Prog_srpt.packed (Prog_srpt.create ())) ~flows:[ (0, 1.0); (1, 1.0) ] in
  (* flow 1: one small packet; flow 0: a large backlog *)
  for _ = 1 to 4 do
    enq s ~flow:0 ~size:1400 ~arrival:0.0
  done;
  enq s ~flow:1 ~size:200 ~arrival:0.0;
  Alcotest.(check (list int))
    "smallest remaining backlog first" [ 1; 0; 0; 0; 0 ] (serve_order s 5)

let edf_semantics () =
  let s = setup (Prog_edf.packed (Prog_edf.create ())) ~flows:[ (0, 1.0); (1, 1.0) ] in
  (* later arrival = later deadline at equal weight *)
  enq s ~flow:1 ~size:500 ~arrival:2.0;
  enq s ~flow:0 ~size:500 ~arrival:1.0;
  Alcotest.(check (list int)) "earlier deadline first" [ 0; 1 ] (serve_order s 2);
  (* a heavier flow has a tighter relative deadline *)
  enq s ~flow:0 ~size:500 ~arrival:3.0;
  enq s ~flow:1 ~size:500 ~arrival:3.0;
  Packed.set_weight s 1 4.0;
  Alcotest.(check (list int)) "tighter deadline wins" [ 1; 0 ] (serve_order s 2)

let lstf_semantics () =
  let s = setup (Prog_lstf.packed (Prog_lstf.create ())) ~flows:[ (0, 1.0); (1, 1.0) ] in
  (* equal deadlines; the flow with the larger backlog has less slack *)
  enq s ~flow:0 ~size:100 ~arrival:0.0;
  for _ = 1 to 5 do
    enq s ~flow:1 ~size:1400 ~arrival:0.0
  done;
  match Packed.next_packet s 0 with
  | Some pkt -> Alcotest.(check int) "less slack first" 1 pkt.Packet.flow
  | None -> Alcotest.fail "idle"

let negative_iface () =
  let s = Prog_wfq.packed (Prog_wfq.create ()) in
  Alcotest.check_raises "rejected"
    (Invalid_argument "Sched_prog.add_iface: negative interface id")
    (fun () -> Packed.add_iface s (-1));
  Alcotest.(check (list int)) "no interface registered" [] (Packed.ifaces s)

(* --- 4. per-flow footprint ------------------------------------------------ *)

(* Live major-heap words per registered flow on interfaces [ifaces],
   each flow having had one packet enqueued and served, so WFQ holds a
   finish tag per flow.  Program state kept per (flow, interface) must
   grow with the flow's own interfaces, never with the interface ids:
   a per-flow array indexed by interface id costs thousands of words
   per flow on ids near 4096. *)
let live_words_per_flow make ifaces =
  let n = 20_000 in
  let s = make () in
  List.iter (Packed.add_iface s) ifaces;
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  for flow = 0 to n - 1 do
    Packed.add_flow s ~flow ~weight:1.0 ~allowed:ifaces
  done;
  for flow = 0 to n - 1 do
    assert (Packed.enqueue s (Packet.create ~flow ~size:100 ~arrival:0.0))
  done;
  let served = ref 0 in
  while Option.is_some (Packed.next_packet s (List.hd ifaces)) do
    incr served
  done;
  Gc.full_major ();
  let after = (Gc.stat ()).live_words in
  Alcotest.(check int) "every flow served" n !served;
  Alcotest.(check int) "all registered" n (List.length (Packed.flows s));
  Float.of_int (after - before) /. Float.of_int n

(* 54.1 (WFQ) and 45.5 (round robin) words measured on both id sets;
   the hashed flow and interface tables read 103.5 and 70.7. *)
let flow_footprint name make ~bound () =
  let low = live_words_per_flow make [ 0; 1 ] in
  let high = live_words_per_flow make [ 4096; 4097 ] in
  Printf.printf "%s: live words per flow: %.1f (ifaces 0,1), %.1f (4096,4097)\n"
    name low high;
  if Float.abs (high -. low) > 1.0 then
    Alcotest.failf "%s: %.1f vs %.1f live words per flow, more than 1 apart"
      name low high;
  if low > bound then
    Alcotest.failf "%s: %.1f live words per flow > %.0f" name low bound

(* Words reachable from a scheduler after registering [ifaces], in that
   order.  A slot array indexed by interface id must grow to about the
   largest id, not to the next doubling past it: on {4096, 4097} the
   ascending order must cost what the descending one does (the old
   doubling rule kept 8194 slots per array ascending, 4098 descending). *)
let reachable_after add_iface s ifaces =
  List.iter (add_iface s) ifaces;
  Obj.reachable_words (Obj.repr s)

let sparse_iface_ids () =
  let orders name words =
    let up = words [ 4096; 4097 ] and down = words [ 4097; 4096 ] in
    Printf.printf "%s: %d words ascending, %d descending\n" name up down;
    if Float.of_int (abs (up - down)) > 0.01 *. Float.of_int down then
      Alcotest.failf "%s: %d words ascending vs %d descending, over 1%% apart"
        name up down
  in
  orders "wfq" (fun ifaces ->
      reachable_after Prog_wfq.add_iface (Prog_wfq.create ()) ifaces);
  orders "rr" (fun ifaces ->
      reachable_after Prog_rr.add_iface (Prog_rr.create ()) ifaces);
  let engine =
    reachable_after Drr_engine.add_iface
      (Drr_engine.create Drr_engine.Service_flags)
      [ 4096; 4097 ]
  in
  Printf.printf "drr engine: %d words ascending\n" engine;
  if engine > 4_400 then
    Alcotest.failf "drr engine: %d words on interfaces 4096, 4097 > 4400" engine

let () =
  let rand =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> Random.State.make [| int_of_string s |]
    | None -> Random.State.make [| 20130109 |]
  in
  let to_alcotest t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "sched_prog"
    [
      ( "pifo",
        [
          to_alcotest prop_pifo_model;
          Alcotest.test_case "equal ranks pop by key" `Quick pifo_key_ties;
          Alcotest.test_case "error cases" `Quick pifo_errors;
        ] );
      ( "golden",
        [
          Alcotest.test_case
            (Printf.sprintf "wfq churn (%d seeds x 5k steps)" (List.length seeds))
            `Slow
            (churn_golden "wfq" (fun () -> Prog_wfq.packed (Prog_wfq.create ())));
          Alcotest.test_case
            (Printf.sprintf "rr churn (%d seeds x 5k steps)" (List.length seeds))
            `Slow
            (churn_golden "rr" (fun () -> Prog_rr.packed (Prog_rr.create ())));
        ] );
      ( "programs",
        [
          Alcotest.test_case "strict priority" `Quick sprio_semantics;
          Alcotest.test_case "srpt" `Quick srpt_semantics;
          Alcotest.test_case "edf" `Quick edf_semantics;
          Alcotest.test_case "lstf" `Quick lstf_semantics;
          Alcotest.test_case "negative interface id" `Quick negative_iface;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "wfq per-flow footprint" `Quick
            (flow_footprint "wfq"
               (fun () -> Prog_wfq.packed (Prog_wfq.create ()))
               ~bound:60.0);
          Alcotest.test_case "rr per-flow footprint" `Quick
            (flow_footprint "rr"
               (fun () -> Prog_rr.packed (Prog_rr.create ()))
               ~bound:50.0);
          Alcotest.test_case "sparse interface ids" `Quick sparse_iface_ids;
        ] );
    ]
