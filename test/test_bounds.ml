(* The delay-bound harness: qcheck properties of the min-plus curve
   algebra, closed-form spot checks, the corpus sweep — every
   token-bucket-shaped scenario run under both drr and midrr, asserting
   the simulated worst-case and p999 enqueue-to-service delays never
   exceed the analytical network-calculus bound — and the same check of
   the worst case over random tb/cbr scenarios. *)

module Curve = Midrr_netcalc.Curve
module Arrival = Midrr_netcalc.Arrival
module Service = Midrr_netcalc.Service
module Bound = Midrr_netcalc.Bound
module Bounds = Midrr_sim.Bounds
module Scenario = Midrr_sim.Scenario
module Link = Midrr_sim.Link

let close ?(eps = 1e-9) what expected got =
  if Float.abs (expected -. got) > eps *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" what expected got

(* --- generators ---------------------------------------------------------- *)

let pos_float lo hi = QCheck.Gen.float_range lo hi

let affine_gen =
  QCheck.Gen.(
    let* burst = pos_float 0.0 1e5 in
    let* rate = pos_float 0.0 1e6 in
    return (burst, rate))

let rl_gen =
  QCheck.Gen.(
    let* rate = pos_float 1.0 1e6 in
    let* latency = pos_float 0.0 2.0 in
    return (rate, latency))

let times = [ 0.0; 1e-6; 0.001; 0.3; 1.0; 2.5; 10.0; 1e3 ]

(* --- curve algebra properties -------------------------------------------- *)

let prop_min_pointwise =
  QCheck.Test.make ~count:300 ~name:"min_curve is the pointwise minimum"
    (QCheck.make QCheck.Gen.(pair affine_gen rl_gen))
    (fun ((burst, rate), (r2, t2)) ->
      let a = Curve.affine ~burst ~rate in
      let b = Curve.rate_latency ~rate:r2 ~latency:t2 in
      let m = Curve.min_curve a b in
      List.for_all
        (fun t ->
          let want = Float.min (Curve.eval a t) (Curve.eval b t) in
          Float.abs (Curve.eval m t -. want)
          <= 1e-9 *. Float.max 1.0 (Float.abs want))
        times)

let prop_max_pointwise =
  QCheck.Test.make ~count:300 ~name:"max_curve is the pointwise maximum"
    (QCheck.make QCheck.Gen.(pair rl_gen rl_gen))
    (fun ((r1, t1), (r2, t2)) ->
      let a = Curve.rate_latency ~rate:r1 ~latency:t1 in
      let b = Curve.rate_latency ~rate:r2 ~latency:t2 in
      let m = Curve.max_curve a b in
      List.for_all
        (fun t ->
          let want = Float.max (Curve.eval a t) (Curve.eval b t) in
          Float.abs (Curve.eval m t -. want)
          <= 1e-9 *. Float.max 1.0 (Float.abs want))
        times)

(* Rate-latency curves are closed under min-plus convolution:
   (R1,T1) x (R2,T2) = (min R1 R2, T1 + T2). *)
let prop_conv_rate_latency =
  QCheck.Test.make ~count:300 ~name:"conv of rate-latency curves is closed"
    (QCheck.make QCheck.Gen.(pair rl_gen rl_gen))
    (fun ((r1, t1), (r2, t2)) ->
      let c =
        Curve.conv
          (Curve.rate_latency ~rate:r1 ~latency:t1)
          (Curve.rate_latency ~rate:r2 ~latency:t2)
      in
      let want =
        Curve.rate_latency ~rate:(Float.min r1 r2) ~latency:(t1 +. t2)
      in
      Curve.is_convex c
      && List.for_all
           (fun t ->
             let w = Curve.eval want t in
             Float.abs (Curve.eval c t -. w)
             <= 1e-6 *. Float.max 1.0 (Float.abs w))
           times)

let prop_curves_nondecreasing =
  QCheck.Test.make ~count:300
    ~name:"affine, rate-latency and their min/sum are nondecreasing"
    (QCheck.make QCheck.Gen.(pair affine_gen rl_gen))
    (fun ((burst, rate), (r2, t2)) ->
      let a = Curve.affine ~burst ~rate in
      let b = Curve.rate_latency ~rate:r2 ~latency:t2 in
      Curve.is_nondecreasing a
      && Curve.is_nondecreasing b
      && Curve.is_nondecreasing (Curve.min_curve a b)
      && Curve.is_nondecreasing (Curve.sum a b))

(* Shrinking the burst can only tighten the delay bound (and growing the
   service rate can only help): monotonicity the harness relies on when it
   reads a tightness ratio as a regression signal. *)
let prop_bound_monotone_in_burst =
  QCheck.Test.make ~count:300 ~name:"delay bound is monotone in the burst"
    (QCheck.make
       QCheck.Gen.(
         let* rate = pos_float 1.0 1e5 in
         let* margin = pos_float 1.1 10.0 in
         let* latency = pos_float 0.0 0.5 in
         let* burst = pos_float 0.0 1e5 in
         let* shrink = pos_float 0.0 1.0 in
         return (rate, margin, latency, burst, shrink)))
    (fun (rate, margin, latency, burst, shrink) ->
      let beta = Curve.rate_latency ~rate:(rate *. margin) ~latency in
      let d b = Bound.delay ~arrival:(Curve.affine ~burst:b ~rate) ~service:beta in
      d (burst *. shrink) <= d burst +. 1e-9)

(* The textbook closed form: token bucket (sigma, rho) through
   rate-latency (R, T) with rho <= R delays at most T + sigma / R. *)
let prop_hdev_closed_form =
  QCheck.Test.make ~count:300
    ~name:"hdev(affine, rate-latency) = T + sigma/R"
    (QCheck.make
       QCheck.Gen.(
         let* sigma = pos_float 0.0 1e5 in
         let* rho = pos_float 0.0 1e5 in
         let* slack = pos_float 1.0 10.0 in
         let* latency = pos_float 0.0 1.0 in
         return (sigma, rho, rho *. slack +. 1.0, latency)))
    (fun (sigma, rho, r, t) ->
      let got =
        Bound.delay
          ~arrival:(Curve.affine ~burst:sigma ~rate:rho)
          ~service:(Curve.rate_latency ~rate:r ~latency:t)
      in
      let want = t +. (sigma /. r) in
      Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 want)

let prop_vdev_closed_form =
  QCheck.Test.make ~count:300
    ~name:"vdev(affine, rate-latency) = sigma + rho * T"
    (QCheck.make
       QCheck.Gen.(
         let* sigma = pos_float 0.0 1e5 in
         let* rho = pos_float 0.0 1e5 in
         let* slack = pos_float 1.0 10.0 in
         let* latency = pos_float 0.0 1.0 in
         return (sigma, rho, rho *. slack +. 1.0, latency)))
    (fun (sigma, rho, r, t) ->
      let got =
        Bound.backlog
          ~arrival:(Curve.affine ~burst:sigma ~rate:rho)
          ~service:(Curve.rate_latency ~rate:r ~latency:t)
      in
      let want = sigma +. (rho *. t) in
      Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 want)

(* --- deterministic spot checks ------------------------------------------- *)

let test_hdev_unstable () =
  (* Long-run arrival rate above the service rate: no finite bound. *)
  let d =
    Bound.delay
      ~arrival:(Curve.affine ~burst:100.0 ~rate:2000.0)
      ~service:(Curve.rate_latency ~rate:1000.0 ~latency:0.1)
  in
  Alcotest.(check bool) "unbounded" true (d = Float.infinity)

let test_blind_needs_all_constrained () =
  let constrained =
    { Service.quantum = 1500.0; max_pkt = 1500.0;
      arrival = Some (Arrival.token_bucket ~rate:1000.0 ~burst:3000.0) }
  in
  let unconstrained =
    { Service.quantum = 1500.0; max_pkt = 1500.0; arrival = None }
  in
  (match Service.blind_residual ~line_rate:1e6 ~competitors:[ constrained ] with
  | Some _ -> ()
  | None -> Alcotest.fail "constrained cross-traffic should yield a curve");
  match
    Service.blind_residual ~line_rate:1e6
      ~competitors:[ constrained; unconstrained ]
  with
  | None -> ()
  | Some _ -> Alcotest.fail "one unconstrained competitor must disable blind"

let test_residual_refinement_helps () =
  (* The bound_crosstraffic shape in miniature: the lap rate is below the
     flow's token rate (no bound from the lap curve alone), but because
     every competitor is constrained the blind refinement restores a
     finite bound. *)
  let competitors =
    [
      { Service.quantum = 6000.0; max_pkt = 1500.0;
        arrival = Some (Arrival.cbr ~rate_bps:2e6 ~pkt:1500) };
      { Service.quantum = 1500.0; max_pkt = 1500.0;
        arrival = Some (Arrival.cbr ~rate_bps:1.5e6 ~pkt:1500) };
    ]
  in
  let line_rate = 1e6 (* bytes/s = 8 Mb/s *) in
  let alpha = Arrival.token_bucket ~rate:125_000.0 ~burst:4500.0 in
  let lap =
    Service.lap_residual ~line_rate ~quantum:1500.0 ~max_pkt:1500.0
      ~deficit_cells:1 ~competitors
  in
  let combined =
    Service.residual ~line_rate ~quantum:1500.0 ~max_pkt:1500.0
      ~deficit_cells:1 ~competitors
  in
  Alcotest.(check bool) "lap alone diverges" true
    (Bound.delay ~arrival:alpha ~service:lap = Float.infinity);
  Alcotest.(check bool) "refined bound is finite" true
    (Float.is_finite (Bound.delay ~arrival:alpha ~service:combined))

let test_min_line_rate () =
  let profile = Link.steps ~initial:10e6 [ (5.0, 4e6); (9.0, 7e6) ] in
  close "min over horizon" 4e6 (Bounds.min_line_rate profile ~horizon:20.0);
  close "before the dip" 10e6 (Bounds.min_line_rate profile ~horizon:5.0);
  close "constant" 3e6
    (Bounds.min_line_rate (Link.constant 3e6) ~horizon:100.0)

(* --- the corpus sweep ----------------------------------------------------- *)

let corpus =
  [ "../scenarios/bound_twoiface.scn"; "../scenarios/bound_crosstraffic.scn" ]

let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Scenario.parse text with
  | Ok scn -> scn
  | Error e -> Alcotest.failf "%s: %s" path e

let test_corpus () =
  let checked = ref 0 in
  List.iter
    (fun path ->
      let scn = load path in
      Alcotest.(check bool)
        (path ^ " is event-free") false
        (Scenario.has_events scn);
      List.iter
        (fun discipline ->
          let r =
            Bounds.report ~seed:7 ~label:(Filename.basename path) ~discipline
              scn
          in
          Format.printf "%a@." Bounds.pp_report r;
          List.iter
            (fun (row : Bounds.row) ->
              let ctx =
                Printf.sprintf "%s/%s/%s" r.label
                  (Bounds.discipline_name discipline)
                  row.flow
              in
              (* Every flow in the bound corpus is token-bucket shaped and
                 stable, so every row must be finite and populated — the
                 sweep can never pass vacuously. *)
              if not (Float.is_finite row.bound) then
                Alcotest.failf "%s: bound not finite" ctx;
              if row.samples < 1000 then
                Alcotest.failf "%s: only %d delay samples" ctx row.samples;
              if row.sim_max > row.bound then
                Alcotest.failf "%s: simulated max %.6fs exceeds bound %.6fs"
                  ctx row.sim_max row.bound;
              if row.sim_p999 > row.bound then
                Alcotest.failf "%s: simulated p999 %.6fs exceeds bound %.6fs"
                  ctx row.sim_p999 row.bound;
              (match
                 Bound.tightness ~bound:row.bound ~observed:row.sim_max
               with
              | Some ratio when ratio <= 1.0 -> ()
              | Some ratio ->
                  Alcotest.failf "%s: tightness %.3f above 1" ctx ratio
              | None -> Alcotest.failf "%s: no tightness ratio" ctx);
              incr checked)
            r.rows)
        [ Bounds.Drr; Bounds.Midrr ])
    corpus;
  (* 3 + 4 flows, two disciplines each. *)
  Alcotest.(check int) "rows checked" 14 !checked

(* A different seed must not change the analytical side, and the bound
   must keep holding (the sources are deterministic here, but the check
   guards the harness against seed-sensitive plumbing). *)
let test_corpus_seed_insensitive () =
  let scn = load "../scenarios/bound_twoiface.scn" in
  let b1 = Bounds.analyze ~discipline:Bounds.Midrr scn in
  let r =
    Bounds.report ~seed:99 ~label:"bound_twoiface.scn"
      ~discipline:Bounds.Midrr scn
  in
  List.iter
    (fun (row : Bounds.row) ->
      (match List.assoc_opt row.flow b1 with
      | Some b -> close ("bound for " ^ row.flow) b row.bound
      | None -> Alcotest.failf "missing bound for %s" row.flow);
      Alcotest.(check bool)
        (row.flow ^ " within bound") true
        (row.sim_max <= row.bound))
    r.rows

(* --- random scenarios ----------------------------------------------------- *)

(* A random scenario the analysis covers: 2-3 constant-rate interfaces of
   2-20 Mb/s and 2-5 tb/cbr flows, each on a random non-empty set of
   them, whose rates sum to 20-90% of the total capacity, over a horizon
   of 1-4 s.  A flow confined to a slow interface may still overload it;
   its bound is then infinite and its row unchecked. *)
let scenario_gen =
  QCheck.Gen.(
    let* caps = list_size (int_range 2 3) (int_range 2_000 20_000) in
    let n_if = List.length caps in
    let flow =
      let* weight = float_range 0.5 4.0 in
      let* mask = int_range 1 ((1 lsl n_if) - 1) in
      let* pkt = oneofl [ 500; 1000; 1500 ] in
      let* share = float_range 0.1 1.0 in
      let* tb = bool in
      let* burst = int_range 1 4 in
      return (weight, mask, pkt, share, tb, burst)
    in
    let* flows = list_size (int_range 2 5) flow in
    let* load = float_range 0.2 0.9 in
    let* horizon = int_range 1 4 in
    let b = Buffer.create 256 in
    List.iteri (fun j c -> Printf.bprintf b "iface %d constant %dkb\n" j c) caps;
    let total = Float.of_int (List.fold_left ( + ) 0 caps) in
    let shares = List.fold_left (fun a (_, _, _, s, _, _) -> a +. s) 0. flows in
    List.iteri
      (fun i (weight, mask, pkt, share, tb, burst) ->
        let ifaces =
          List.filter (fun j -> mask land (1 lsl j) <> 0) (List.init n_if Fun.id)
        in
        let rate = Float.round (load *. total *. share /. shares) in
        Printf.bprintf b "flow f%d weight=%.2f ifaces=%s " i weight
          (String.concat "," (List.map string_of_int ifaces));
        if tb then
          Printf.bprintf b "tb rate=%.0fkb burst=%d pkt=%d\n" rate
            (burst * pkt) pkt
        else Printf.bprintf b "cbr rate=%.0fkb pkt=%d\n" rate pkt)
      flows;
    Printf.bprintf b "run %d\n" horizon;
    return (Buffer.contents b))

let finite_rows = ref 0
let tightest = ref 0.0

let prop_random_within_bounds =
  QCheck.Test.make ~count:250
    ~name:"random tb/cbr scenarios: simulated max within every finite bound"
    (QCheck.make ~print:Fun.id scenario_gen)
    (fun text ->
      match Scenario.parse text with
      | Error e -> QCheck.Test.fail_reportf "parse: %s" e
      | Ok scn ->
          List.for_all
            (fun discipline ->
              let r = Bounds.report ~label:"random" ~discipline scn in
              List.for_all
                (fun (row : Bounds.row) ->
                  if not (Float.is_finite row.bound) then true
                  else if row.sim_max <= row.bound then begin
                    incr finite_rows;
                    tightest := Float.max !tightest (row.sim_max /. row.bound);
                    true
                  end
                  else
                    QCheck.Test.fail_reportf "%s/%s: max %.9g s, bound %.9g s"
                      (Bounds.discipline_name discipline)
                      row.flow row.sim_max row.bound)
                r.rows)
            [ Bounds.Drr; Bounds.Midrr ])

(* The property must check rows, not pass on scenarios whose every bound
   is infinite: a finite row with no simulated delay (max nan) fails it. *)
let test_random_within_bounds () =
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 20261018 |])
    prop_random_within_bounds;
  Printf.printf "%d finite rows checked, tightest sim_max/bound %.3f\n"
    !finite_rows !tightest;
  if !finite_rows < 250 then
    Alcotest.failf "only %d finite rows over 250 scenarios" !finite_rows

let () =
  let rand = Random.State.make [| 20260808 |] in
  let to_alcotest t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "bounds"
    [
      ( "curve algebra",
        List.map to_alcotest
          [
            prop_min_pointwise;
            prop_max_pointwise;
            prop_conv_rate_latency;
            prop_curves_nondecreasing;
            prop_bound_monotone_in_burst;
            prop_hdev_closed_form;
            prop_vdev_closed_form;
          ] );
      ( "spot checks",
        [
          Alcotest.test_case "unstable arrival has no bound" `Quick
            test_hdev_unstable;
          Alcotest.test_case "blind needs all competitors constrained" `Quick
            test_blind_needs_all_constrained;
          Alcotest.test_case "refinement rescues an unstable lap bound" `Quick
            test_residual_refinement_helps;
          Alcotest.test_case "min line rate over stepped profiles" `Quick
            test_min_line_rate;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "simulated delays within bounds" `Slow test_corpus;
          Alcotest.test_case "bounds are seed-insensitive" `Quick
            test_corpus_seed_insensitive;
        ] );
      ( "random",
        [
          Alcotest.test_case "simulated max within every finite bound" `Quick
            test_random_within_bounds;
        ] );
    ]
