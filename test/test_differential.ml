(* Differential testing of the fast engine against the executable spec.

   [Drr_engine] (the O(active) fast path) and [Drr_engine_ref] (the
   original list-and-hashtable implementation) are driven in lockstep
   through long randomized churn runs — enqueues, serves, flow add/remove,
   interface add/remove, weight and preference changes — under every mode,
   flag policy and counter depth.  After every step the two engines must
   agree on the served packet, the emitted event stream (which carries the
   per-serve deficits), every per-(flow, interface) deficit / flag counter
   / turn count, every ring order and the global considered counter.  Any
   divergence fails with the config, seed, step and first differing
   observable, which is enough to replay deterministically. *)

module F = Midrr_core.Drr_engine
module R = Midrr_core.Drr_engine_ref
module Packet = Midrr_core.Packet
module Event = Midrr_obs.Event

type config = {
  label : string;
  flags : bool; (* Service_flags vs Plain *)
  per_send : bool; (* Per_send vs Per_turn *)
  counter_max : int;
  queue_capacity : int option;
  seed : int;
  steps : int;
}

let default_steps = 10_000

let configs =
  let base =
    [
      {
        label = "plain";
        flags = false;
        per_send = false;
        counter_max = 1;
        queue_capacity = None;
        seed = 0xD1FF;
        steps = default_steps;
      };
      {
        label = "plain bounded-queue";
        flags = false;
        per_send = false;
        counter_max = 1;
        queue_capacity = Some 6000;
        seed = 0xBEEF;
        steps = default_steps;
      };
      {
        label = "midrr bounded-queue";
        flags = true;
        per_send = false;
        counter_max = 2;
        queue_capacity = Some 4500;
        seed = 0xCAFE;
        steps = default_steps;
      };
    ]
  in
  let flagged =
    List.concat_map
      (fun per_send ->
        List.map
          (fun counter_max ->
            {
              label =
                Printf.sprintf "midrr %s counter=%d"
                  (if per_send then "per-send" else "per-turn")
                  counter_max;
              flags = true;
              per_send;
              counter_max;
              queue_capacity = None;
              seed = 0x5EED + (counter_max * 7) + if per_send then 1000 else 0;
              steps = default_steps;
            })
          [ 1; 2; 3; 4; 5; 6; 7; 8 ])
      [ false; true ]
  in
  base @ flagged

(* --- one lockstep pair -------------------------------------------------- *)

type pair = {
  fast : F.t;
  refe : R.t;
  fast_ev : Event.t list ref; (* newest first *)
  ref_ev : Event.t list ref;
}

let make_pair cfg =
  let fast =
    F.create ?queue_capacity:cfg.queue_capacity
      ~flag_policy:(if cfg.per_send then F.Per_send else F.Per_turn)
      ~counter_max:cfg.counter_max
      (if cfg.flags then F.Service_flags else F.Plain)
  in
  let refe =
    R.create ?queue_capacity:cfg.queue_capacity
      ~flag_policy:(if cfg.per_send then R.Per_send else R.Per_turn)
      ~counter_max:cfg.counter_max
      (if cfg.flags then R.Service_flags else R.Plain)
  in
  let fast_ev = ref [] and ref_ev = ref [] in
  F.set_sink fast (Some (fun e -> fast_ev := Event.decode e :: !fast_ev));
  R.set_sink refe (Some (fun e -> ref_ev := Event.decode e :: !ref_ev));
  { fast; refe; fast_ev; ref_ev }

let ev_str e = Format.asprintf "%a" Event.pp e

let ids l = String.concat "," (List.map string_of_int l)

(* Compare the event streams emitted during the last step and clear them. *)
let check_events cfg step p =
  let f = List.rev !(p.fast_ev) and r = List.rev !(p.ref_ev) in
  p.fast_ev := [];
  p.ref_ev := [];
  if f <> r then begin
    let rec first_diff i = function
      | [], [] -> (i, "<none>", "<none>")
      | e :: _, [] -> (i, ev_str e, "<missing>")
      | [], e :: _ -> (i, "<missing>", ev_str e)
      | a :: ta, b :: tb ->
          if a = b then first_diff (i + 1) (ta, tb)
          else (i, ev_str a, ev_str b)
    in
    let i, a, b = first_diff 0 (f, r) in
    Alcotest.failf "%s (seed %#x) step %d: event %d diverges: fast %s, ref %s"
      cfg.label cfg.seed step i a b
  end

(* Sparse, with one large id: interface ids index the fast engine's slot
   arrays, while each flow's own state must stay sized by its preference
   list. *)
let iface_pool = [ 0; 1; 3; 7; 1000 ]

(* Full observable-state comparison across every flow, interface and
   (flow, interface) pair; pairs also on the pool's offline interfaces,
   which both engines must report as unlinked. *)
let check_state cfg step ~flows ~ifaces p =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Alcotest.failf "%s (seed %#x) step %d: %s" cfg.label cfg.seed step m)
      fmt
  in
  if F.considered p.fast <> R.considered p.refe then
    fail "considered: fast %d, ref %d" (F.considered p.fast)
      (R.considered p.refe);
  List.iter
    (fun j ->
      let rf = F.ring_flows p.fast j and rr = R.ring_flows p.refe j in
      if rf <> rr then
        fail "iface %d ring: fast [%s], ref [%s]" j (ids rf) (ids rr))
    ifaces;
  let pair_ifaces = List.sort_uniq Int.compare (ifaces @ iface_pool) in
  List.iter
    (fun f ->
      if F.backlog_bytes p.fast f <> R.backlog_bytes p.refe f then
        fail "flow %d backlog: fast %d, ref %d" f
          (F.backlog_bytes p.fast f)
          (R.backlog_bytes p.refe f);
      if F.backlog_packets p.fast f <> R.backlog_packets p.refe f then
        fail "flow %d backlog pkts" f;
      if F.deficit p.fast f <> R.deficit p.refe f then
        fail "flow %d deficit: fast %g, ref %g" f (F.deficit p.fast f)
          (R.deficit p.refe f);
      if F.quantum p.fast f <> R.quantum p.refe f then fail "flow %d quantum" f;
      if F.turns p.fast f <> R.turns p.refe f then
        fail "flow %d turns: fast %d, ref %d" f (F.turns p.fast f)
          (R.turns p.refe f);
      if F.served_bytes p.fast f <> R.served_bytes p.refe f then
        fail "flow %d served" f;
      if F.drops p.fast f <> R.drops p.refe f then
        fail "flow %d drops: fast %d, ref %d" f (F.drops p.fast f)
          (R.drops p.refe f);
      if F.allowed_ifaces p.fast f <> R.allowed_ifaces p.refe f then
        fail "flow %d allowed set" f;
      List.iter
        (fun j ->
          if
            F.deficit_on p.fast ~flow:f ~iface:j
            <> R.deficit_on p.refe ~flow:f ~iface:j
          then
            fail "pair (%d,%d) deficit: fast %g, ref %g" f j
              (F.deficit_on p.fast ~flow:f ~iface:j)
              (R.deficit_on p.refe ~flow:f ~iface:j);
          if
            F.service_counter p.fast ~flow:f ~iface:j
            <> R.service_counter p.refe ~flow:f ~iface:j
          then
            fail "pair (%d,%d) counter: fast %d, ref %d" f j
              (F.service_counter p.fast ~flow:f ~iface:j)
              (R.service_counter p.refe ~flow:f ~iface:j);
          if
            F.turns_on p.fast ~flow:f ~iface:j
            <> R.turns_on p.refe ~flow:f ~iface:j
          then fail "pair (%d,%d) turns" f j;
          if
            F.served_bytes_on p.fast ~flow:f ~iface:j
            <> R.served_bytes_on p.refe ~flow:f ~iface:j
          then fail "pair (%d,%d) served" f j)
        pair_ifaces)
    flows

(* --- the churn driver --------------------------------------------------- *)

let max_flows = 32

let run_config cfg =
  let st = Random.State.make [| cfg.seed |] in
  let rand n = Random.State.int st n in
  let pick l = List.nth l (rand (List.length l)) in
  let p = make_pair cfg in
  let flows = ref [] (* alive flow ids *)
  and ifaces = ref [] (* alive iface ids *)
  and next_flow = ref 0
  and retired = ref [] (* removed flow ids, candidates for slot reuse *)
  and clock = ref 0.0 in
  let fresh_flow_id () =
    (* Mostly fresh ids (growing the slot arrays), sometimes a retired id
       to exercise slot reuse. *)
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
    (* One to five draws from the interface pool, with replacement and in
       draw order: unsorted lists with duplicates, sometimes already
       ascending.  Offline interfaces are included; they must be linked
       lazily when they come up. *)
    List.init (1 + rand 5) (fun _ -> pick iface_pool)
  in
  let add_flow () =
    if List.length !flows < max_flows then begin
      let id = fresh_flow_id () in
      let weight = 0.5 +. (float_of_int (rand 8) /. 2.0) in
      let allowed = random_allowed () in
      F.add_flow p.fast ~flow:id ~weight ~allowed;
      R.add_flow p.refe ~flow:id ~weight ~allowed;
      flows := id :: !flows
    end
  in
  let add_iface () =
    match List.filter (fun j -> not (List.mem j !ifaces)) iface_pool with
    | [] -> ()
    | offline ->
        let j = pick offline in
        F.add_iface p.fast j;
        R.add_iface p.refe j;
        ifaces := j :: !ifaces
  in
  (* Seed topology so early steps have something to do. *)
  add_iface ();
  add_iface ();
  add_flow ();
  add_flow ();
  check_events cfg (-1) p;
  for step = 0 to cfg.steps - 1 do
    clock := !clock +. 0.001;
    (match rand 100 with
    | n when n < 34 ->
        (* enqueue *)
        if !flows <> [] then begin
          let f = pick !flows in
          let size = 64 + rand 1437 in
          let pkt = Packet.create ~flow:f ~size ~arrival:!clock in
          let af = F.enqueue p.fast pkt and ar = R.enqueue p.refe pkt in
          if af <> ar then
            Alcotest.failf "%s step %d: enqueue accept: fast %b, ref %b"
              cfg.label step af ar
        end
    | n when n < 74 ->
        (* serve *)
        if !ifaces <> [] then begin
          let j = pick !ifaces in
          let pf = F.next_packet p.fast j and pr = R.next_packet p.refe j in
          match (pf, pr) with
          | None, None -> ()
          | Some a, Some b when a == b -> ()
          | _ ->
              let show = function
                | None -> "idle"
                | Some (q : Packet.t) ->
                    Printf.sprintf "flow %d (%dB) @%h" q.flow q.size q.arrival
              in
              Alcotest.failf "%s (seed %#x) step %d: serve on %d: fast %s, \
                              ref %s"
                cfg.label cfg.seed step j (show pf) (show pr)
        end
    | n when n < 80 -> add_flow ()
    | n when n < 84 ->
        (* remove flow *)
        if !flows <> [] then begin
          let f = pick !flows in
          F.remove_flow p.fast f;
          R.remove_flow p.refe f;
          flows := List.filter (fun g -> g <> f) !flows;
          retired := f :: !retired
        end
    | n when n < 88 -> add_iface ()
    | n when n < 91 ->
        (* remove iface *)
        if !ifaces <> [] then begin
          let j = pick !ifaces in
          F.remove_iface p.fast j;
          R.remove_iface p.refe j;
          ifaces := List.filter (fun k -> k <> j) !ifaces
        end
    | n when n < 95 ->
        (* weight change *)
        if !flows <> [] then begin
          let f = pick !flows in
          let w = 0.5 +. (float_of_int (rand 10) /. 2.0) in
          F.set_weight p.fast f w;
          R.set_weight p.refe f w
        end
    | n when n < 98 ->
        (* preference change *)
        if !flows <> [] then begin
          let f = pick !flows in
          let allowed = random_allowed () in
          F.set_allowed p.fast f allowed;
          R.set_allowed p.refe f allowed
        end
    | n when n < 99 ->
        (* enqueue to an unknown flow: rejected with a Drop event *)
        let pkt = Packet.create ~flow:9999 ~size:700 ~arrival:!clock in
        let af = F.enqueue p.fast pkt and ar = R.enqueue p.refe pkt in
        if af || ar then
          Alcotest.failf "%s step %d: unknown-flow enqueue accepted" cfg.label
            step
    | _ ->
        F.reset_counters p.fast;
        R.reset_counters p.refe);
    check_events cfg step p;
    check_state cfg step ~flows:!flows ~ifaces:!ifaces p
  done;
  (* Drain: serve every interface until idle, still in lockstep. *)
  List.iter
    (fun j ->
      let budget = ref 200_000 in
      let continue = ref true in
      while !continue && !budget > 0 do
        decr budget;
        match (F.next_packet p.fast j, R.next_packet p.refe j) with
        | None, None -> continue := false
        | Some a, Some b when a == b -> ()
        | _ -> Alcotest.failf "%s drain: divergence on iface %d" cfg.label j
      done;
      check_events cfg cfg.steps p)
    !ifaces;
  check_state cfg cfg.steps ~flows:!flows ~ifaces:!ifaces p

(* --- churn teardown ----------------------------------------------------- *)

(* Regression for the former O(n) physical-equality link-list scans on
   interface removal: build a large population, tear every interface and
   flow down, and check both engines stay consistent (and empty) at each
   stage.  With the old list rebuilds this is the quadratic worst case. *)
let teardown_case () =
  let n_flows = 10_000 in
  let ifaces = [ 0; 1; 2; 3 ] in
  let p =
    make_pair
      {
        label = "teardown";
        flags = true;
        per_send = false;
        counter_max = 1;
        queue_capacity = None;
        seed = 0;
        steps = 0;
      }
  in
  List.iter
    (fun j ->
      F.add_iface p.fast j;
      R.add_iface p.refe j)
    ifaces;
  for f = 0 to n_flows - 1 do
    F.add_flow p.fast ~flow:f ~weight:1.0 ~allowed:ifaces;
    R.add_flow p.refe ~flow:f ~weight:1.0 ~allowed:ifaces;
    if f mod 3 = 0 then begin
      let pkt = Packet.create ~flow:f ~size:1000 ~arrival:0.0 in
      ignore (F.enqueue p.fast pkt);
      ignore (R.enqueue p.refe pkt)
    end
  done;
  let cfg =
    {
      label = "teardown";
      flags = true;
      per_send = false;
      counter_max = 1;
      queue_capacity = None;
      seed = 0;
      steps = 0;
    }
  in
  check_events cfg 0 p;
  (* Serve a little so rings and cursors are warm before teardown. *)
  List.iter
    (fun j ->
      for _ = 1 to 100 do
        match (F.next_packet p.fast j, R.next_packet p.refe j) with
        | Some a, Some b when a == b -> ()
        | None, None -> ()
        | _ -> Alcotest.fail "teardown: warmup divergence"
      done)
    ifaces;
  check_events cfg 1 p;
  (* Tear interfaces down one by one; every link to them must unlink. *)
  List.iter
    (fun j ->
      F.remove_iface p.fast j;
      R.remove_iface p.refe j;
      Alcotest.(check bool)
        (Printf.sprintf "iface %d gone" j)
        false (F.has_iface p.fast j))
    ifaces;
  check_events cfg 2 p;
  Alcotest.(check (list int)) "no ifaces left" [] (F.ifaces p.fast);
  (* Flows survive with no links; their queues are intact.  (A late flow:
     the warmup serves only reach the first few hundred ring positions.) *)
  Alcotest.(check int)
    "backlog survives iface teardown" 1000
    (F.backlog_bytes p.fast (n_flows - 4));
  check_state cfg 3 ~flows:[ 0; 1; 2; 17; n_flows - 1 ] ~ifaces:[] p;
  (* Now remove every flow. *)
  for f = 0 to n_flows - 1 do
    F.remove_flow p.fast f;
    R.remove_flow p.refe f
  done;
  check_events cfg 4 p;
  Alcotest.(check (list int)) "no flows left" [] (F.flows p.fast);
  Alcotest.(check (list int)) "ref: no flows left" [] (R.flows p.refe);
  (* Re-add after total teardown: slot reuse must behave like fresh state. *)
  F.add_iface p.fast 2;
  R.add_iface p.refe 2;
  F.add_flow p.fast ~flow:5 ~weight:2.0 ~allowed:[ 2 ];
  R.add_flow p.refe ~flow:5 ~weight:2.0 ~allowed:[ 2 ];
  let pkt = Packet.create ~flow:5 ~size:500 ~arrival:1.0 in
  ignore (F.enqueue p.fast pkt);
  ignore (R.enqueue p.refe pkt);
  (match (F.next_packet p.fast 2, R.next_packet p.refe 2) with
  | Some a, Some b when a == b -> ()
  | _ -> Alcotest.fail "teardown: post-rebuild serve diverges");
  check_events cfg 5 p;
  check_state cfg 5 ~flows:[ 5 ] ~ifaces:[ 2 ] p

let () =
  (* The churn configs are independent lockstep runs (each builds its own
     engines and RNG), so they shard across domains via [Par.run].  On
     failure the lowest-indexed config's Alcotest exception propagates
     with its label and seed, which is enough to replay serially. *)
  let churn_sharded () =
    ignore
      (Midrr_par.Par.run
         (Array.of_list (List.map (fun cfg () -> run_config cfg) configs)))
  in
  Alcotest.run "differential"
    [
      ( "churn",
        [
          Alcotest.test_case
            (Printf.sprintf "%d configs sharded across domains (%d steps each)"
               (List.length configs) default_steps)
            `Slow churn_sharded;
        ] );
      ("teardown", [ Alcotest.test_case "10k-flow teardown" `Quick teardown_case ]);
    ]
