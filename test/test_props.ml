(* Property-based tests (qcheck): the paper's invariants on random
   instances, plus model-based checks of the core data structures. *)

open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Meter = Midrr_sim.Meter
module Instance = Midrr_flownet.Instance
module Maxmin = Midrr_flownet.Maxmin
module Cluster = Midrr_flownet.Cluster

(* --- generators ---------------------------------------------------------- *)

type topo = {
  weights : float array;
  capacities : float array; (* Mb/s *)
  allowed : bool array array;
}

let topo_gen ~uniform =
  (* [uniform] instances have equal weights and equal capacities — the
     regime where the 1-bit flag's turn-frequency equalization matches rate
     equalization, so miDRR tracks the reference tightly. *)
  QCheck.Gen.(
    let* n = int_range 1 5 in
    let* m = int_range 1 3 in
    let* weights =
      if uniform then return (Array.make n 1.0)
      else array_size (return n) (float_range 0.5 4.0)
    in
    let* capacities =
      if uniform then
        let* c = float_range 2.0 10.0 in
        return (Array.make m c)
      else array_size (return m) (float_range 2.0 20.0)
    in
    let* allowed =
      array_size (return n) (array_size (return m) bool)
    in
    let* fixes = array_size (return n) (int_range 0 (m - 1)) in
    Array.iteri
      (fun i row -> if Array.for_all not row then row.(fixes.(i)) <- true)
      allowed;
    return { weights; capacities; allowed })

let instance_of_topo t =
  Instance.make ~weights:t.weights
    ~capacities:(Array.map Types.mbps t.capacities)
    ~allowed:t.allowed

let topo_print t = Format.asprintf "%a" Instance.pp (instance_of_topo t)

let topo_arb ~uniform =
  QCheck.make ~print:topo_print (topo_gen ~uniform)

(* Run a scheduler over the topology with everyone backlogged; return
   the window after the warm-up, judged over every flow. *)
let simulate ?(horizon = 25.0) ?(warmup = 5.0)
    ?(make_sched = fun () -> Midrr.packed (Midrr.create ())) t =
  let n = Array.length t.weights and m = Array.length t.capacities in
  let sched = make_sched () in
  let sim = Netsim.create ~sched () in
  for j = 0 to m - 1 do
    Netsim.add_iface sim j (Link.constant (Types.mbps t.capacities.(j)))
  done;
  for i = 0 to n - 1 do
    let allowed =
      List.filter (fun j -> t.allowed.(i).(j)) (List.init m Fun.id)
    in
    Netsim.add_flow sim i ~weight:t.weights.(i) ~allowed
      (Netsim.Backlogged { pkt_size = 1000 })
  done;
  let judged =
    Netsim.window sim ~t0:warmup ~t1:horizon ~judge:(fun _ -> true)
  in
  Netsim.run sim ~until:horizon;
  judged ()

(* --- scheduler properties -------------------------------------------------- *)

(* Interface preferences are never violated. *)
let prop_preferences_respected =
  QCheck.Test.make ~count:25 ~name:"midrr never uses a banned interface"
    (topo_arb ~uniform:false) (fun t ->
      let { Meter.share; _ } = simulate t in
      Array.for_all Fun.id
        (Array.mapi
           (fun i row ->
             Array.for_all Fun.id
               (Array.mapi
                  (fun j r -> t.allowed.(i).(j) || r <= 0.0)
                  row))
           share))

(* Work conservation: every interface with at least one willing flow is
   saturated (all flows backlogged). *)
let prop_work_conserving =
  QCheck.Test.make ~count:25 ~name:"midrr is work-conserving"
    (topo_arb ~uniform:false) (fun t ->
      let { Meter.share; _ } = simulate t in
      let m = Array.length t.capacities in
      let ok = ref true in
      for j = 0 to m - 1 do
        let willing =
          Array.exists (fun row -> row.(j)) t.allowed
        in
        if willing then begin
          let used = Array.fold_left (fun acc row -> acc +. row.(j)) 0.0 share in
          if used < 0.93 *. Types.mbps t.capacities.(j) then ok := false
        end
      done;
      !ok)

(* No backlogged flow with an allowed interface starves. *)
let prop_no_starvation =
  QCheck.Test.make ~count:25 ~name:"no flow starves"
    (topo_arb ~uniform:false) (fun t ->
      Array.for_all (fun r -> r > 0.0) (simulate t).rates)

(* The published 1-bit flag can deviate from max-min on adversarial
   asymmetric topologies (see EXPERIMENTS.md), but it is never farther from
   the reference than uncoordinated per-interface DRR: the flags only add
   information. *)
let total_deviation rates reference =
  let acc = ref 0.0 in
  Array.iteri
    (fun i r -> acc := !acc +. Float.abs (r -. reference.Maxmin.rates.(i)))
    rates;
  !acc

let prop_no_worse_than_naive =
  QCheck.Test.make ~count:20
    ~name:"midrr at least as close to max-min as naive DRR"
    (topo_arb ~uniform:false) (fun t ->
      let midrr = simulate t in
      let naive =
        simulate ~make_sched:(fun () -> Drr.packed (Drr.create ())) t
      in
      let reference = midrr.reference in
      let scale = Array.fold_left ( +. ) 0.0 reference.rates in
      total_deviation midrr.rates reference
      <= total_deviation naive.rates reference +. (0.10 *. scale))

(* Generalizing the flag to a small saturating counter (counter_max = 8)
   recovers tight max-min convergence on arbitrary topologies — the
   repository's extension of the paper's 1-bit design. *)
let prop_counter_flags_tight =
  QCheck.Test.make ~count:20
    ~name:"counter-flag midrr within 12% of max-min everywhere"
    (topo_arb ~uniform:false) (fun t ->
      let { Meter.rates; reference; _ } =
        simulate
          ~make_sched:(fun () -> Midrr.packed (Midrr.create ~counter_max:8 ()))
          t
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun i r ->
             let want = reference.rates.(i) in
             Float.abs (r -. want) <= 0.12 *. Float.max want 1e5)
           rates))

(* Even "uniform" instances (equal weights, equal capacities) can deviate
   beyond 10% under the published 1-bit flag when the multi-homing graph is
   rich, so the tight bound is only asserted for the counter-flag variant
   above; here the 1-bit scheduler on uniform instances keeps every flow
   within 25% of the reference. *)
let prop_reference_uniform =
  QCheck.Test.make ~count:20
    ~name:"measured rates within 25% of max-min (uniform instances)"
    (topo_arb ~uniform:true) (fun t ->
      let { Meter.rates; reference; _ } = simulate t in
      Array.for_all Fun.id
        (Array.mapi
           (fun i r ->
             let want = reference.rates.(i) in
             Float.abs (r -. want) <= 0.25 *. Float.max want 1e5)
           rates))

(* Flows with identical preferences and weights receive equal rates. *)
let prop_twins_equal =
  QCheck.Test.make ~count:20 ~name:"identical flows get identical rates"
    (topo_arb ~uniform:false) (fun t ->
      (* Duplicate flow 0 as a twin. *)
      let n = Array.length t.weights in
      let t' =
        {
          weights = Array.append t.weights [| t.weights.(0) |];
          capacities = t.capacities;
          allowed = Array.append t.allowed [| Array.copy t.allowed.(0) |];
        }
      in
      let { Meter.rates; _ } = simulate t' in
      let a = rates.(0) and b = rates.(n) in
      Float.abs (a -. b) <= 0.10 *. Float.max a 1e5)

(* --- churn properties ----------------------------------------------------- *)

(* Randomized flow churn: flows join and leave mid-run while everyone who
   remains stays backlogged.  Leaves pick from whoever is alive when the
   event fires; joins always use a fresh flow id (the simulator keeps
   measurement history for departed flows, so ids are never recycled).
   The final window is measured after the last change has settled and is
   compared against the reference allocation for the surviving set. *)

type churn_op =
  | Leave of int  (** index into the currently-alive list (mod length) *)
  | Join of { weight : float; allowed : bool array }

type churn_plan = { base : topo; churn : (float * churn_op) list }

let churn_gen =
  QCheck.Gen.(
    let* base = topo_gen ~uniform:false in
    let m = Array.length base.capacities in
    let op_gen =
      let* leave = bool in
      if leave then
        let* k = int_range 0 9 in
        return (Leave k)
      else
        let* weight = float_range 0.5 4.0 in
        let* allowed = array_size (return m) bool in
        let* fix = int_range 0 (m - 1) in
        if Array.for_all not allowed then allowed.(fix) <- true;
        return (Join { weight; allowed })
    in
    let* churn =
      list_size (int_range 1 6)
        (let* t = float_range 2.0 12.0 in
         let* op = op_gen in
         return (t, op))
    in
    return { base; churn })

let churn_print p =
  let op_str = function
    | Leave k -> Printf.sprintf "leave#%d" k
    | Join { weight; allowed } ->
        Printf.sprintf "join(w=%.2f,%s)" weight
          (String.concat ""
             (List.map
                (fun b -> if b then "1" else "0")
                (Array.to_list allowed)))
  in
  Printf.sprintf "%s\nchurn: %s" (topo_print p.base)
    (String.concat "; "
       (List.map (fun (t, op) -> Printf.sprintf "%.1fs %s" t (op_str op)) p.churn))

let churn_arb = QCheck.make ~print:churn_print churn_gen

(* Apply the plan; return the settled window judged over the survivors.
   [None] when every flow has left. *)
let run_churn ?(make_sched = fun () -> Midrr.packed (Midrr.create ())) plan =
  let n = Array.length plan.base.weights in
  let m = Array.length plan.base.capacities in
  let sched = make_sched () in
  let sim = Netsim.create ~sched () in
  for j = 0 to m - 1 do
    Netsim.add_iface sim j (Link.constant (Types.mbps plan.base.capacities.(j)))
  done;
  let add ~at id ~weight ~row =
    let allowed = List.filter (fun j -> row.(j)) (List.init m Fun.id) in
    Netsim.add_flow sim ~at id ~weight ~allowed
      (Netsim.Backlogged { pkt_size = 1000 })
  in
  (* The alive set evolves deterministically from the plan, so the whole
     schedule can be registered up front. *)
  let live =
    ref
      (List.init n (fun i -> (i, plan.base.weights.(i), plan.base.allowed.(i))))
  in
  List.iter (fun (id, weight, row) -> add ~at:0.0 id ~weight ~row) !live;
  let next_id = ref n in
  List.iter
    (fun (t, op) ->
      match op with
      | Leave _ when !live = [] -> ()
      | Leave k ->
          let idx = k mod List.length !live in
          let id, _, _ = List.nth !live idx in
          Netsim.remove_flow sim ~at:t id;
          live := List.filteri (fun i _ -> i <> idx) !live
      | Join { weight; allowed } ->
          let id = !next_id in
          incr next_id;
          add ~at:t id ~weight ~row:allowed;
          live := !live @ [ (id, weight, allowed) ])
    (List.sort (fun (a, _) (b, _) -> Float.compare a b) plan.churn);
  let judged =
    Netsim.window sim ~t0:18.0 ~t1:38.0 ~judge:(fun f ->
        List.exists (fun (id, _, _) -> Int.equal id f) !live)
  in
  Netsim.run sim ~until:38.0;
  match !live with [] -> None | _ :: _ -> Some (judged ())

(* Counter-flag miDRR reconverges to the surviving set's max-min
   allocation after arbitrary churn. *)
let prop_churn_counter_tracks_maxmin =
  QCheck.Test.make ~count:15
    ~name:"counter-flag midrr tracks max-min after flow churn"
    churn_arb (fun plan ->
      match
        run_churn
          ~make_sched:(fun () -> Midrr.packed (Midrr.create ~counter_max:8 ()))
          plan
      with
      | None -> true
      | Some { rates; reference; _ } ->
          Array.for_all Fun.id
            (Array.mapi
               (fun i r ->
                 let want = reference.Maxmin.rates.(i) in
                 Float.abs (r -. want) <= 0.15 *. Float.max want 1e5)
               rates))

(* The Per_send flag policy keeps the hard guarantees (preferences, no
   starvation) under the same churn schedules; its rates may deviate from
   max-min, so only the invariants are asserted. *)
let prop_churn_per_send_invariants =
  QCheck.Test.make ~count:15
    ~name:"per-send flag policy keeps invariants under churn"
    churn_arb (fun plan ->
      match
        run_churn
          ~make_sched:(fun () ->
            Midrr.packed (Midrr.create ~flag_policy:Drr_engine.Per_send ()))
          plan
      with
      | None -> true
      | Some { rates; share; instance = inst; _ } ->
          let prefs_ok =
            Array.for_all Fun.id
              (Array.mapi
                 (fun i row ->
                   Array.for_all Fun.id
                     (Array.mapi
                        (fun j b ->
                          (List.mem j (Instance.allowed_ifaces inst i)
                          || b <= 0.0)
                          && b >= 0.0)
                        row))
                 share)
          in
          prefs_ok && Array.for_all (fun r -> r > 0.0) rates)

(* Scaling all weights together does not change the allocation. *)
let prop_weight_scale_invariant =
  QCheck.Test.make ~count:15 ~name:"solver invariant under weight scaling"
    (topo_arb ~uniform:false) (fun t ->
      let ref1 = Maxmin.solve (instance_of_topo t) in
      let scaled =
        Instance.make
          ~weights:(Array.map (fun w -> 3.0 *. w) t.weights)
          ~capacities:(Array.map Types.mbps t.capacities)
          ~allowed:t.allowed
      in
      let ref2 = Maxmin.solve scaled in
      Array.for_all Fun.id
        (Array.mapi
           (fun i r ->
             Float.abs (r -. ref2.rates.(i)) <= 1e-3 *. Float.max r 1.0)
           ref1.rates))

(* The solver's allocation always satisfies the Theorem 2 conditions. *)
let prop_solver_clustering_certificate =
  QCheck.Test.make ~count:40 ~name:"solver output satisfies rate clustering"
    (topo_arb ~uniform:false) (fun t ->
      let inst = instance_of_topo t in
      let a = Maxmin.solve inst in
      Cluster.check ~tol:1e-4 inst ~share:a.share ~rates:a.rates = [])

(* Adding capacity never lowers any flow's reference rate (paper
   property 4). *)
let prop_more_capacity_no_worse =
  QCheck.Test.make ~count:25 ~name:"extra capacity never hurts (solver)"
    (topo_arb ~uniform:false) (fun t ->
      let inst = instance_of_topo t in
      let before = Maxmin.solve inst in
      let bigger =
        Instance.make ~weights:t.weights
          ~capacities:
            (Array.map (fun c -> Types.mbps (c +. 5.0)) t.capacities)
          ~allowed:t.allowed
      in
      let after = Maxmin.solve bigger in
      Array.for_all Fun.id
        (Array.mapi
           (fun i r -> after.rates.(i) >= r -. 1e-3)
           before.rates))

(* --- data structure models -------------------------------------------------- *)

(* Ring vs list model: a random op sequence keeps contents consistent. *)
let prop_ring_model =
  let ops_gen = QCheck.Gen.(list_size (int_range 1 60) (int_range 0 2)) in
  QCheck.Test.make ~count:100 ~name:"ring matches list model"
    (QCheck.make ops_gen) (fun ops ->
      let ring = Ring.create () in
      let model = ref [] in
      let nodes = ref [] in
      let counter = ref 0 in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              (* push_back *)
              incr counter;
              let n = Ring.push_back ring !counter in
              nodes := !nodes @ [ n ];
              model := !model @ [ !counter ]
          | 1 -> (
              (* remove first live node *)
              match !nodes with
              | [] -> ()
              | n :: rest ->
                  Ring.remove ring n;
                  nodes := rest;
                  model := List.tl !model)
          | _ ->
              (* length check *)
              assert (Ring.length ring = List.length !model))
        ops;
      Ring.to_list ring = !model)

(* Pktqueue capacity is a hard bound. *)
let prop_pktqueue_capacity =
  let gen = QCheck.Gen.(list_size (int_range 1 50) (int_range 1 400)) in
  QCheck.Test.make ~count:100 ~name:"pktqueue respects capacity"
    (QCheck.make gen) (fun sizes ->
      let q = Pktqueue.create ~capacity_bytes:1000 () in
      List.iter
        (fun s ->
          ignore (Pktqueue.push q (Packet.create ~flow:0 ~size:s ~arrival:0.0)))
        sizes;
      Pktqueue.backlog_bytes q <= 1000)

(* The ranges the proxy requests, [Chunk.next_length] walked from byte
   0, tile the transfer exactly: each in (0, chunk], until they sum to
   the total. *)
let prop_chunk_plan =
  let gen = QCheck.Gen.(pair (int_range 0 100000) (int_range 1 9999)) in
  QCheck.Test.make ~count:200 ~name:"chunk plan tiles the transfer"
    (QCheck.make gen) (fun (total, chunk) ->
      let rec tiles sent =
        match
          Midrr_http.Chunk.next_length ~total_bytes:total ~chunk_size:chunk
            ~sent
        with
        | 0 -> sent = total
        | n -> n <= chunk && tiles (sent + n)
      in
      tiles 0)

(* Token bucket long-run conservation: total consumption over any op
   sequence never exceeds burst + rate * elapsed. *)
let prop_tokenbucket_conservation =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 200) (pair (float_range 0.0 0.5) (int_range 1 2000)))
  in
  QCheck.Test.make ~count:200 ~name:"token bucket never over-delivers"
    (QCheck.make gen) (fun steps ->
      let rate = 1000.0 and burst = 3000.0 in
      let b = Tokenbucket.create ~rate ~burst in
      let now = ref 0.0 and consumed = ref 0 in
      List.iter
        (fun (dt, bytes) ->
          now := !now +. dt;
          if Tokenbucket.try_consume b ~now:!now ~bytes then
            consumed := !consumed + bytes)
        steps;
      Float.of_int !consumed <= burst +. (rate *. !now) +. 1e-6)

(* Tokens only accumulate: with no consumption in between, a later
   observation never sees fewer tokens. *)
let prop_tokenbucket_available_monotone =
  let gen =
    QCheck.Gen.(
      triple (float_range 1.0 5000.0) (float_range 100.0 10000.0)
        (list_size (int_range 1 50) (float_range 0.0 2.0)))
  in
  QCheck.Test.make ~count:200 ~name:"token bucket available is monotone in now"
    (QCheck.make gen) (fun (rate, burst, gaps) ->
      let b = Tokenbucket.create ~rate ~burst in
      (* Start from an arbitrary fill level. *)
      ignore (Tokenbucket.try_consume b ~now:0.0 ~bytes:(int_of_float burst));
      let now = ref 0.0 and prev = ref (Tokenbucket.available b ~now:0.0) in
      List.for_all
        (fun dt ->
          now := !now +. dt;
          let avail = Tokenbucket.available b ~now:!now in
          let ok = avail >= !prev -. 1e-9 in
          prev := avail;
          ok)
        gaps)

(* The contract the greedy tb source leans on: whenever [time_until] is
   finite, waiting exactly that long makes [try_consume] succeed — no
   infinite loop of ever-smaller waits from float round-off, including at
   the boundary [bytes = burst]. *)
let prop_tokenbucket_time_until_consistent =
  let gen =
    QCheck.Gen.(
      let* rate = float_range 1.0 5000.0 in
      let* burst_pkts = int_range 1 8 in
      let* pkt = int_range 1 3000 in
      let* drains = list_size (int_range 0 30) (float_range 0.0 0.3) in
      return (rate, float_of_int (burst_pkts * pkt), pkt, drains))
  in
  QCheck.Test.make ~count:300
    ~name:"token bucket time_until is consistent with try_consume"
    (QCheck.make
       ~print:(fun (rate, burst, pkt, drains) ->
         Printf.sprintf "rate=%.17g burst=%.17g pkt=%d drains=[%s]" rate burst
           pkt
           (String.concat "; " (List.map (Printf.sprintf "%.17g") drains)))
       gen)
    (fun (rate, burst, pkt, drains) ->
      let b = Tokenbucket.create ~rate ~burst in
      let now = ref 0.0 in
      (* Random partial drain to land on awkward fill levels. *)
      List.iter
        (fun dt ->
          now := !now +. dt;
          ignore (Tokenbucket.try_consume b ~now:!now ~bytes:pkt))
        drains;
      let check bytes =
        let wait = Tokenbucket.time_until b ~now:!now ~bytes in
        (not (Float.is_finite wait))
        ||
        (now := !now +. wait;
         Tokenbucket.try_consume b ~now:!now ~bytes)
      in
      (* One packet, and the boundary case of the full burst. *)
      check pkt && check (int_of_float burst))

(* The float solver agrees with the exact rational solver on integral
   instances — the strongest calibration of the reference ground truth. *)
let prop_float_matches_exact =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* m = int_range 1 3 in
      let* weights = array_size (return n) (int_range 1 4) in
      let* capacities = array_size (return m) (int_range 1 25) in
      let* allowed = array_size (return n) (array_size (return m) bool) in
      let* fixes = array_size (return n) (int_range 0 (m - 1)) in
      Array.iteri
        (fun i row -> if Array.for_all not row then row.(fixes.(i)) <- true)
        allowed;
      return (weights, capacities, allowed))
  in
  QCheck.Test.make ~count:150 ~name:"float solver matches exact rational solver"
    (QCheck.make gen) (fun (weights, capacities, allowed) ->
      let inst =
        Instance.make
          ~weights:(Array.map Float.of_int weights)
          ~capacities:(Array.map Float.of_int capacities)
          ~allowed
      in
      let float_rates = (Maxmin.solve inst).rates in
      let exact_rates = Midrr_flownet.Maxmin_exact.solve_floats inst in
      Array.for_all Fun.id
        (Array.mapi
           (fun i f ->
             Float.abs (f -. exact_rates.(i))
             <= 1e-5 *. Float.max 1.0 exact_rates.(i))
           float_rates))

(* Max-flow conservation at interior nodes of random graphs. *)
let prop_maxflow_conservation =
  let gen = QCheck.Gen.(int_range 0 10_000) in
  QCheck.Test.make ~count:60 ~name:"max-flow conserves at interior nodes"
    (QCheck.make gen) (fun seed ->
      let rng = Midrr_stats.Rng.create ~seed in
      let n = 6 in
      let g = Midrr_flownet.Maxflow.create ~n in
      let handles = ref [] in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d && Midrr_stats.Rng.bernoulli rng ~p:0.4 then begin
            let cap = Midrr_stats.Rng.uniform rng ~lo:0.5 ~hi:8.0 in
            let h = Midrr_flownet.Maxflow.add_edge g ~src:s ~dst:d ~cap in
            handles := (s, d, h) :: !handles
          end
        done
      done;
      ignore (Midrr_flownet.Maxflow.max_flow g ~src:0 ~dst:(n - 1));
      let net = Array.make n 0.0 in
      List.iter
        (fun (s, d, h) ->
          let f = Midrr_flownet.Maxflow.flow_on g h in
          net.(s) <- net.(s) -. f;
          net.(d) <- net.(d) +. f)
        !handles;
      let ok = ref true in
      for v = 1 to n - 2 do
        if Float.abs net.(v) > 1e-6 then ok := false
      done;
      !ok)

(* CDF sanity: eval is monotone and quantile inverts it. *)
let prop_cdf_monotone =
  let gen = QCheck.Gen.(array_size (int_range 1 50) (float_range 0.0 100.0)) in
  QCheck.Test.make ~count:200 ~name:"cdf eval monotone, quantile inverts"
    (QCheck.make gen) (fun xs ->
      let c = Midrr_stats.Cdf.of_samples xs in
      let points = Midrr_stats.Cdf.points c in
      let monotone = ref true in
      Array.iteri
        (fun i (_, p) ->
          if i > 0 && p < snd points.(i - 1) then monotone := false)
        points;
      let inverts =
        List.for_all
          (fun q -> Midrr_stats.Cdf.eval c (Midrr_stats.Cdf.quantile c ~q) >= q -. 1e-9)
          [ 0.1; 0.5; 0.9; 1.0 ]
      in
      !monotone && inverts)

(* Engine fuzz: a random op sequence never raises unexpectedly, and the
   flows an interface serves are always eligible and backlogged. *)
let engine_fuzz_body m ops =
  let n_flows = 4 and n_ifaces = 3 in
      for j = 0 to n_ifaces - 1 do
        Drr_engine.add_iface m j
      done;
      let rng = Midrr_stats.Rng.create ~seed:(List.length ops) in
      let ok = ref true in
      List.iter
        (fun op ->
          let flow = op mod n_flows in
          let iface = op mod n_ifaces in
          match op mod 7 with
          | 0 | 1 ->
              if Drr_engine.has_flow m flow then
                ignore
                  (Drr_engine.enqueue m
                     (Packet.create ~flow
                        ~size:(1 + Midrr_stats.Rng.int rng ~bound:2000)
                        ~arrival:0.0))
          | 2 | 3 -> (
              match Drr_engine.next_packet m iface with
              | Some pkt ->
                  (* The served flow must be eligible on this interface. *)
                  let fs = Drr_engine.flows m in
                  if not (List.mem pkt.flow fs) then ok := false
              | None -> ())
          | 4 ->
              if not (Drr_engine.has_flow m flow) then
                Drr_engine.add_flow m ~flow
                  ~weight:(0.5 +. Midrr_stats.Rng.float rng)
                  ~allowed:
                    (List.filter
                       (fun _ -> Midrr_stats.Rng.bool rng)
                       (List.init n_ifaces Fun.id))
          | 5 ->
              if Drr_engine.has_flow m flow then Drr_engine.remove_flow m flow
          | _ ->
              if Drr_engine.has_flow m flow then
                Drr_engine.set_allowed m flow
                  (List.filter
                     (fun _ -> Midrr_stats.Rng.bool rng)
                     (List.init n_ifaces Fun.id)))
        ops;
      (* Final invariant: every ring member is backlogged and eligible. *)
      List.iter
        (fun j ->
          List.iter
            (fun f ->
              if not (Drr_engine.is_backlogged m f) then ok := false)
            (Drr_engine.ring_flows m j))
        (Drr_engine.ifaces m);
      !ok

let prop_engine_fuzz =
  let gen = QCheck.Gen.(list_size (int_range 10 200) (int_range 0 99)) in
  QCheck.Test.make ~count:60 ~name:"engine fuzz: invariants under random ops"
    (QCheck.make gen) (fun ops -> engine_fuzz_body (Midrr.create ()) ops)

(* Same fuzz, but across the engine's configuration space: both flag
   policies and counter depths beyond the paper's single bit. *)
let prop_engine_fuzz_variants =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 10 200) (int_range 0 99))
        bool (int_range 1 8))
  in
  QCheck.Test.make ~count:40
    ~name:"engine fuzz across flag policies and counter depths"
    (QCheck.make gen) (fun (ops, per_send, counter_max) ->
      let m =
        Midrr.create
          ~flag_policy:(if per_send then Drr_engine.Per_send else Drr_engine.Per_turn)
          ~counter_max ()
      in
      engine_fuzz_body m ops)

(* --- generic discipline invariants ---------------------------------------- *)

(* Every Sched_intf.packed discipline — bespoke and substrate-based alike
   — must keep the interface-agnostic invariants under randomized churn:
   never serve a flow on a disallowed or unknown interface, account
   backlog as accepted-minus-served bytes, keep served_bytes equal to the
   per-interface sum, and stay work-conserving (an interface with an
   eligible backlogged flow never idles).  The driver speaks only the
   packed API, so one harness covers the whole registry. *)

let all_disciplines : (string * (unit -> Sched_intf.packed)) list =
  [
    ("midrr", fun () -> Midrr.packed (Midrr.create ()));
    ("drr", fun () -> Drr.packed (Drr.create ()));
    ("wfq", fun () -> Prog_wfq.packed (Prog_wfq.create ()));
    ("rr", fun () -> Prog_rr.packed (Prog_rr.create ()));
    ("oracle", fun () -> Oracle.packed (Oracle.create ~capacity:(fun _ -> 1e6) ()));
    ("sprio", fun () -> Prog_sprio.packed (Prog_sprio.create ()));
    ("srpt", fun () -> Prog_srpt.packed (Prog_srpt.create ()));
    ("edf", fun () -> Prog_edf.packed (Prog_edf.create ()));
    ("lstf", fun () -> Prog_lstf.packed (Prog_lstf.create ()));
  ]

let discipline_invariants name make seed =
  let module Packed = Sched_intf.Packed in
  let st = Random.State.make [| seed |] in
  let rand n = Random.State.int st n in
  let pick l = List.nth l (rand (List.length l)) in
  let s = make () in
  let iface_pool = [ 0; 1; 2 ] in
  let fail step fmt =
    Printf.ksprintf
      (fun m -> Alcotest.failf "%s (seed %d) step %d: %s" name seed step m)
      fmt
  in
  (* accepted- and served-bytes ledgers per live flow.  Per-(flow,iface)
     serve counts are only asserted for interfaces that were never taken
     offline: engines that keep that state interface-side (the DRR
     family) legitimately drop it with the interface, while flow-side
     implementations persist it — both satisfy the flow totals. *)
  let accepted = Hashtbl.create 16 in
  let served_on = Hashtbl.create 16 in
  let flows = ref [] and ifaces = ref [] and next_flow = ref 0 in
  let clock = ref 0.0 in
  let random_allowed () =
    let all = List.filter (fun _ -> rand 3 > 0) iface_pool in
    if all = [] then [ pick iface_pool ] else all
  in
  let add_flow () =
    if List.length !flows < 12 then begin
      let id = !next_flow in
      incr next_flow;
      Packed.add_flow s ~flow:id
        ~weight:(0.5 +. (float_of_int (rand 8) /. 2.0))
        ~allowed:(random_allowed ());
      Hashtbl.replace accepted id 0;
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
  add_iface ();
  add_flow ();
  add_flow ();
  for step = 0 to 1_999 do
    clock := !clock +. 0.001;
    (match rand 100 with
    | n when n < 38 ->
        if !flows <> [] then begin
          let f = pick !flows in
          let size = 64 + rand 1437 in
          if Packed.enqueue s (Packet.create ~flow:f ~size ~arrival:!clock)
          then Hashtbl.replace accepted f (Hashtbl.find accepted f + size)
          else fail step "unbounded queue rejected an enqueue"
        end
    | n when n < 76 ->
        if !ifaces <> [] then begin
          let j = pick !ifaces in
          let eligible =
            List.exists
              (fun f ->
                Packed.is_backlogged s f
                && List.mem j (Packed.allowed_ifaces s f))
              !flows
          in
          match Packed.next_packet s j with
          | Some pkt ->
              if not (List.mem pkt.Packet.flow !flows) then
                fail step "served an unknown flow";
              if not (List.mem j (Packed.allowed_ifaces s pkt.Packet.flow))
              then
                fail step "served flow %d on disallowed iface %d"
                  pkt.Packet.flow j;
              let key = (pkt.Packet.flow, j) in
              Hashtbl.replace served_on key
                ((try Hashtbl.find served_on key with Not_found -> 0)
                + pkt.Packet.size)
          | None ->
              if eligible then
                fail step "iface %d idles with an eligible backlogged flow" j
        end
    | n when n < 84 -> add_flow ()
    | n when n < 88 ->
        if !flows <> [] then begin
          let f = pick !flows in
          Packed.remove_flow s f;
          Hashtbl.remove accepted f;
          List.iter (fun j -> Hashtbl.remove served_on (f, j)) iface_pool;
          flows := List.filter (fun g -> g <> f) !flows
        end
    | n when n < 92 -> add_iface ()
    | n when n < 94 ->
        if !ifaces <> [] then begin
          let j = pick !ifaces in
          Packed.remove_iface s j;
          ifaces := List.filter (fun k -> k <> j) !ifaces
        end
    | n when n < 97 ->
        if !flows <> [] then
          Packed.set_weight s (pick !flows)
            (0.5 +. (float_of_int (rand 10) /. 2.0))
    | _ ->
        if !flows <> [] then
          Packed.set_allowed s (pick !flows) (random_allowed ()));
    (* accounting invariants after every step *)
    List.iter
      (fun f ->
        let served = Packed.served_bytes s f in
        let backlog = Packed.backlog_bytes s f in
        let enq = Hashtbl.find accepted f in
        let ledger =
          List.fold_left
            (fun acc j ->
              acc + (try Hashtbl.find served_on (f, j) with Not_found -> 0))
            0 iface_pool
        in
        if served <> ledger then
          fail step "flow %d served %d <> serve ledger %d" f served ledger;
        if backlog <> enq - served then
          fail step "flow %d backlog %d <> accepted %d - served %d" f backlog
            enq served;
        if Packed.is_backlogged s f <> (backlog > 0) then
          fail step "flow %d backlogged bit" f;
        List.iter
          (fun j ->
            (* Engines may retire a pair counter when the link dissolves
               (interface removal or a preference change), but a pair can
               never claim more than was actually served on it. *)
            let want =
              try Hashtbl.find served_on (f, j) with Not_found -> 0
            in
            let got = Packed.served_bytes_on s ~flow:f ~iface:j in
            if got > want then
              fail step "pair (%d,%d) served %d > ledger %d" f j got want)
          iface_pool)
      !flows
  done

let discipline_cases =
  List.map
    (fun (name, make) ->
      Alcotest.test_case name `Quick (fun () ->
          List.iter (discipline_invariants name make) [ 7; 1009; 65537 ]))
    all_disciplines

(* A negative flow id is either rejected by [add_flow], which then
   leaves no trace of it, or accepted, and then its packet is served.
   Failing later is what this rules out: an enqueue that raises with
   the packet already queued, or an [add_flow] that raises with the
   flow half registered. *)
let negative_flow_id () =
  let module Packed = Sched_intf.Packed in
  List.iter
    (fun (name, make) ->
      let s = make () in
      Packed.add_iface s 0;
      match Packed.add_flow s ~flow:(-1) ~weight:1.0 ~allowed:[ 0 ] with
      | exception Invalid_argument _ ->
          if Packed.has_flow s (-1) then
            Alcotest.failf "%s: rejected flow -1 is registered" name;
          if Option.is_some (Packed.next_packet s 0) then
            Alcotest.failf "%s: served a packet of no flow" name
      | () -> (
          let pkt = Packet.create ~flow:(-1) ~size:100 ~arrival:0.0 in
          if not (Packed.enqueue s pkt) then
            Alcotest.failf "%s: dropped the packet of accepted flow -1" name;
          match Packed.next_packet s 0 with
          | Some p when p.Packet.flow = -1 -> ()
          | _ -> Alcotest.failf "%s: never served accepted flow -1" name))
    all_disciplines

let () =
  (* Fixed generator seed: the suite is deterministic run to run; override
     by exporting QCHECK_SEED. *)
  let rand =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> Random.State.make [| int_of_string s |]
    | None -> Random.State.make [| 20130109 |]
  in
  let to_alcotest t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "properties"
    [
      ( "scheduler",
        List.map to_alcotest
          [
            prop_preferences_respected;
            prop_work_conserving;
            prop_no_starvation;
            prop_no_worse_than_naive;
            prop_counter_flags_tight;
            prop_reference_uniform;
            prop_twins_equal;
            prop_churn_counter_tracks_maxmin;
            prop_churn_per_send_invariants;
          ] );
      ( "solver",
        List.map to_alcotest
          [
            prop_weight_scale_invariant;
            prop_solver_clustering_certificate;
            prop_more_capacity_no_worse;
            prop_float_matches_exact;
          ] );
      ( "structures",
        List.map to_alcotest
          [
            prop_ring_model;
            prop_pktqueue_capacity;
            prop_chunk_plan;
            prop_tokenbucket_conservation;
            prop_tokenbucket_available_monotone;
            prop_tokenbucket_time_until_consistent;
            prop_maxflow_conservation;
            prop_cdf_monotone;
            prop_engine_fuzz;
            prop_engine_fuzz_variants;
          ] );
      ( "disciplines",
        discipline_cases
        @ [ Alcotest.test_case "negative flow id" `Quick negative_flow_id ] );
    ]
