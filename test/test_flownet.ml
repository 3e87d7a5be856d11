(* Tests for the flow-network substrate: Dinic max-flow, the water-filling
   max-min reference solver, and cluster analysis. *)

module Maxflow = Midrr_flownet.Maxflow
module Instance = Midrr_flownet.Instance
module Maxmin = Midrr_flownet.Maxmin
module Cluster = Midrr_flownet.Cluster
module Rng = Midrr_stats.Rng

let close ?(tol = 1e-6) what expected got =
  if Float.abs (expected -. got) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.6g, got %.6g" what expected got

(* --- Maxflow ------------------------------------------------------------ *)

(* Classic 6-node example with max flow 23. *)
let test_maxflow_classic () =
  let g = Maxflow.create ~n:6 in
  let edge s d c = ignore (Maxflow.add_edge g ~src:s ~dst:d ~cap:c) in
  edge 0 1 16.0;
  edge 0 2 13.0;
  edge 1 2 10.0;
  edge 2 1 4.0;
  edge 1 3 12.0;
  edge 3 2 9.0;
  edge 2 4 14.0;
  edge 4 3 7.0;
  edge 3 5 20.0;
  edge 4 5 4.0;
  close "max flow" 23.0 (Maxflow.max_flow g ~src:0 ~dst:5)

let test_maxflow_disconnected () =
  let g = Maxflow.create ~n:4 in
  ignore (Maxflow.add_edge g ~src:0 ~dst:1 ~cap:5.0);
  ignore (Maxflow.add_edge g ~src:2 ~dst:3 ~cap:5.0);
  close "no path" 0.0 (Maxflow.max_flow g ~src:0 ~dst:3)

let test_maxflow_parallel_paths () =
  let g = Maxflow.create ~n:4 in
  ignore (Maxflow.add_edge g ~src:0 ~dst:1 ~cap:3.0);
  ignore (Maxflow.add_edge g ~src:1 ~dst:3 ~cap:3.0);
  ignore (Maxflow.add_edge g ~src:0 ~dst:2 ~cap:4.0);
  ignore (Maxflow.add_edge g ~src:2 ~dst:3 ~cap:2.0);
  close "two paths" 5.0 (Maxflow.max_flow g ~src:0 ~dst:3)

let test_maxflow_flow_on_edges () =
  let g = Maxflow.create ~n:3 in
  let e1 = Maxflow.add_edge g ~src:0 ~dst:1 ~cap:7.0 in
  let e2 = Maxflow.add_edge g ~src:1 ~dst:2 ~cap:4.0 in
  ignore (Maxflow.max_flow g ~src:0 ~dst:2);
  close "bottlenecked edge" 4.0 (Maxflow.flow_on g e1);
  close "saturated edge" 4.0 (Maxflow.flow_on g e2)

let test_maxflow_reachability () =
  let g = Maxflow.create ~n:4 in
  ignore (Maxflow.add_edge g ~src:0 ~dst:1 ~cap:1.0);
  ignore (Maxflow.add_edge g ~src:1 ~dst:2 ~cap:5.0);
  ignore (Maxflow.add_edge g ~src:2 ~dst:3 ~cap:5.0);
  ignore (Maxflow.max_flow g ~src:0 ~dst:3);
  (* The 0->1 edge is the saturated min cut. *)
  let reach = Maxflow.residual_reachable g ~src:0 in
  Alcotest.(check bool) "source side only" false reach.(1);
  let coreach = Maxflow.residual_coreachable g ~dst:3 in
  Alcotest.(check bool) "sink side from 1" true coreach.(1);
  Alcotest.(check bool) "source cannot reach" false coreach.(0)

(* Random graphs: max-flow value never exceeds any cut's capacity, and
   equals at least the value of one greedy path packing. *)
let test_maxflow_random_cut_bound () =
  let rng = Rng.create ~seed:77 in
  for _ = 1 to 50 do
    let n = 6 in
    let g = Maxflow.create ~n in
    let caps = Hashtbl.create 16 in
    for s = 0 to n - 1 do
      for d = 0 to n - 1 do
        if s <> d && Rng.bernoulli rng ~p:0.4 then begin
          let c = Rng.uniform rng ~lo:0.0 ~hi:10.0 in
          ignore (Maxflow.add_edge g ~src:s ~dst:d ~cap:c);
          Hashtbl.replace caps (s, d)
            (c +. Option.value (Hashtbl.find_opt caps (s, d)) ~default:0.0)
        end
      done
    done;
    let value = Maxflow.max_flow g ~src:0 ~dst:(n - 1) in
    (* Check against every bipartition cut (2^(n-2) subsets). *)
    for mask = 0 to (1 lsl (n - 2)) - 1 do
      let side v =
        if v = 0 then true
        else if v = n - 1 then false
        else mask land (1 lsl (v - 1)) <> 0
      in
      let cut = ref 0.0 in
      Hashtbl.iter
        (fun (s, d) c -> if side s && not (side d) then cut := !cut +. c)
        caps;
      if value > !cut +. 1e-6 then
        Alcotest.failf "flow %.4f exceeds a cut %.4f" value !cut
    done
  done

(* --- Maxmin solver -------------------------------------------------------- *)

let solve ?tol weights capacities allowed =
  let inst =
    Instance.make ~weights ~capacities
      ~allowed:(Array.map (Array.map (fun x -> x = 1)) allowed)
  in
  Maxmin.solve ?tol inst

let test_maxmin_single_iface_weighted () =
  let a = solve [| 1.0; 2.0; 1.0 |] [| 8.0 |] [| [| 1 |]; [| 1 |]; [| 1 |] |] in
  close "flow 0" 2.0 a.rates.(0);
  close "flow 1" 4.0 a.rates.(1);
  close "flow 2" 2.0 a.rates.(2)

let test_maxmin_fig1c () =
  let a = solve [| 1.0; 1.0 |] [| 1.0; 1.0 |] [| [| 1; 1 |]; [| 0; 1 |] |] in
  close "flow a" 1.0 a.rates.(0);
  close "flow b" 1.0 a.rates.(1)

let test_maxmin_fig1c_weighted_infeasible () =
  (* phi_b = 2 phi_a but b limited to interface 2: work conservation gives
     both flows 1. *)
  let a = solve [| 1.0; 2.0 |] [| 1.0; 1.0 |] [| [| 1; 1 |]; [| 0; 1 |] |] in
  close "flow a" 1.0 a.rates.(0);
  close "flow b" 1.0 a.rates.(1)

let test_maxmin_fig6_phase1 () =
  let a =
    solve [| 1.0; 2.0; 1.0 |] [| 3.0; 10.0 |]
      [| [| 1; 0 |]; [| 1; 1 |]; [| 0; 1 |] |]
  in
  close "flow a" 3.0 a.rates.(0);
  close ~tol:1e-5 "flow b" (20.0 /. 3.0) a.rates.(1);
  close ~tol:1e-5 "flow c" (10.0 /. 3.0) a.rates.(2)

let test_maxmin_disconnected_flow () =
  let a = solve [| 1.0; 1.0 |] [| 4.0 |] [| [| 1 |]; [| 0 |] |] in
  close "connected" 4.0 a.rates.(0);
  close "disconnected" 0.0 a.rates.(1)

let test_maxmin_spanning_cluster () =
  (* D on both interfaces (6 and 4), B on the first only: both get 5. *)
  let a = solve [| 1.0; 1.0 |] [| 6.0; 4.0 |] [| [| 1; 1 |]; [| 1; 0 |] |] in
  close "D" 5.0 a.rates.(0);
  close "B" 5.0 a.rates.(1)

let test_maxmin_share_consistency () =
  let a =
    solve [| 1.0; 2.0; 1.0 |] [| 3.0; 10.0 |]
      [| [| 1; 0 |]; [| 1; 1 |]; [| 0; 1 |] |]
  in
  Array.iteri
    (fun i row ->
      let total = Array.fold_left ( +. ) 0.0 row in
      close (Printf.sprintf "row %d sums to rate" i) a.rates.(i) total)
    a.share;
  (* Interface loads within capacity. *)
  for j = 0 to 1 do
    let load = a.share.(0).(j) +. a.share.(1).(j) +. a.share.(2).(j) in
    if load > [| 3.0; 10.0 |].(j) +. 1e-6 then
      Alcotest.failf "interface %d overloaded: %.6f" j load
  done

let test_maxmin_feasibility () =
  let inst =
    Instance.make ~weights:[| 1.0; 1.0 |] ~capacities:[| 1.0; 1.0 |]
      ~allowed:[| [| true; true |]; [| false; true |] |]
  in
  Alcotest.(check bool)
    "1,1 feasible" true
    (Maxmin.is_feasible inst ~demands:[| 1.0; 1.0 |]);
  Alcotest.(check bool)
    "0.5,1.4 infeasible" false
    (Maxmin.is_feasible inst ~demands:[| 0.7; 1.4 |]);
  close "total capacity" 2.0 (Maxmin.total_capacity inst)

let test_maxmin_unused_iface_capacity () =
  (* An interface no flow can use does not count as usable capacity. *)
  let inst =
    Instance.make ~weights:[| 1.0 |] ~capacities:[| 5.0; 7.0 |]
      ~allowed:[| [| true; false |] |]
  in
  close "usable capacity" 5.0 (Maxmin.total_capacity inst);
  let a = Maxmin.solve inst in
  close "rate" 5.0 a.rates.(0)

(* The allocation returned by the solver always satisfies the rate
   clustering conditions (Theorem 2: they are necessary and sufficient), on
   random instances. *)
let test_maxmin_random_satisfies_clustering () =
  let rng = Rng.create ~seed:21 in
  for round = 1 to 40 do
    let n = 1 + Rng.int rng ~bound:6 and m = 1 + Rng.int rng ~bound:4 in
    let weights =
      Array.init n (fun _ -> Rng.uniform rng ~lo:0.5 ~hi:4.0)
    in
    let capacities =
      Array.init m (fun _ -> Rng.uniform rng ~lo:1.0 ~hi:20.0)
    in
    let allowed =
      Array.init n (fun _ ->
          let row = Array.init m (fun _ -> Rng.bernoulli rng ~p:0.5) in
          if Array.for_all not row then row.(Rng.int rng ~bound:m) <- true;
          row)
    in
    let inst = Instance.make ~weights ~capacities ~allowed in
    let a = Maxmin.solve inst in
    match Cluster.check ~tol:1e-4 inst ~share:a.share ~rates:a.rates with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "round %d: %a@.%a" round Cluster.pp_violation v
          Instance.pp inst
  done

(* --- Rat ------------------------------------------------------------------ *)

module Rat = Midrr_flownet.Rat
module Maxmin_exact = Midrr_flownet.Maxmin_exact

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_arithmetic () =
  let half = Rat.make 1L 2L and third = Rat.make 1L 3L in
  Alcotest.check rat "1/2+1/3" (Rat.make 5L 6L) (Rat.add half third);
  Alcotest.check rat "1/2-1/3" (Rat.make 1L 6L) (Rat.sub half third);
  Alcotest.check rat "1/2*1/3" (Rat.make 1L 6L) (Rat.mul half third);
  Alcotest.check rat "(1/2)/(1/3)" (Rat.make 3L 2L) (Rat.div half third);
  Alcotest.check rat "normalizes" (Rat.make 1L 2L) (Rat.make 50L 100L);
  Alcotest.check rat "negative den" (Rat.make (-1L) 2L) (Rat.make 1L (-2L));
  Alcotest.(check int) "compare" (-1) (Rat.compare third half);
  Alcotest.(check bool) "to_float" true (Rat.to_float half = 0.5)

let test_rat_of_float () =
  Alcotest.check rat "integer" (Rat.of_int 5) (Rat.of_float_approx 5.0);
  Alcotest.check rat "half" (Rat.make 1L 2L) (Rat.of_float_approx 0.5);
  Alcotest.check rat "third" (Rat.make 1L 3L)
    (Rat.of_float_approx (1.0 /. 3.0));
  Alcotest.check rat "negative" (Rat.make (-7L) 4L) (Rat.of_float_approx (-1.75));
  Alcotest.check rat "million" (Rat.of_int 1_000_000)
    (Rat.of_float_approx 1e6)

let test_rat_overflow_raises () =
  let huge = Rat.make Int64.max_int 1L in
  Alcotest.check_raises "overflow" Rat.Overflow (fun () ->
      ignore (Rat.mul huge huge))

(* --- Exact solver cross-validation ------------------------------------------ *)

let exact_check ?(tol = 1e-6) weights capacities allowed =
  let inst =
    Instance.make ~weights ~capacities
      ~allowed:(Array.map (Array.map (fun x -> x = 1)) allowed)
  in
  let float_rates = (Maxmin.solve inst).rates in
  let exact_rates = Maxmin_exact.solve_floats inst in
  Array.iteri
    (fun i f ->
      if Float.abs (f -. exact_rates.(i)) > tol *. Float.max 1.0 exact_rates.(i)
      then
        Alcotest.failf "flow %d: float %.9g vs exact %.9g" i f exact_rates.(i))
    float_rates;
  exact_rates

let test_exact_fig1c () =
  let rates =
    exact_check [| 1.0; 1.0 |] [| 1.0; 1.0 |] [| [| 1; 1 |]; [| 0; 1 |] |]
  in
  close "a exactly 1" 1.0 rates.(0);
  close "b exactly 1" 1.0 rates.(1)

let test_exact_fig6 () =
  let rates =
    exact_check [| 1.0; 2.0; 1.0 |] [| 3.0; 10.0 |]
      [| [| 1; 0 |]; [| 1; 1 |]; [| 0; 1 |] |]
  in
  close "a" 3.0 rates.(0);
  close ~tol:1e-9 "b = 20/3" (20.0 /. 3.0) rates.(1);
  close ~tol:1e-9 "c = 10/3" (10.0 /. 3.0) rates.(2)

let test_exact_adversarial_shape () =
  (* The 4-flow adversarial topology with integer-ish inputs. *)
  ignore
    (exact_check
       [| 2.0; 2.0; 3.0; 3.5 |]
       [| 3.5; 20.0; 4.0 |]
       [| [| 0; 1; 1 |]; [| 1; 1; 1 |]; [| 1; 1; 0 |]; [| 1; 0; 1 |] |])

let test_exact_random_agreement () =
  let rng = Rng.create ~seed:33 in
  for _ = 1 to 30 do
    let n = 1 + Rng.int rng ~bound:5 and m = 1 + Rng.int rng ~bound:3 in
    (* Integer weights and capacities keep the rational solver exact. *)
    let weights =
      Array.init n (fun _ -> Float.of_int (1 + Rng.int rng ~bound:4))
    in
    let capacities =
      Array.init m (fun _ -> Float.of_int (1 + Rng.int rng ~bound:20))
    in
    let allowed =
      Array.init n (fun _ ->
          let row = Array.init m (fun _ -> if Rng.bool rng then 1 else 0) in
          if Array.for_all (fun v -> v = 0) row then
            row.(Rng.int rng ~bound:m) <- 1;
          row)
    in
    ignore (exact_check weights capacities allowed)
  done

(* --- Diagnose --------------------------------------------------------------- *)

module Diagnose = Midrr_flownet.Diagnose

let test_diagnose_fig1c () =
  (* Flow b is bound by interface 1 (its only choice), shared with nobody
     in steady state; allowing interface 0 would raise it from 1.0 to... in
     fig1c both ifaces are saturated equally, so the counterfactual also
     gives 1.0 (no free capacity). *)
  let inst =
    Instance.make ~weights:[| 1.0; 1.0 |] ~capacities:[| 1.0; 1.0 |]
      ~allowed:[| [| true; true |]; [| false; true |] |]
  in
  let e = List.nth (Diagnose.explain_all inst) 1 in
  close "rate" 1.0 e.rate;
  (match e.binding with
  | Diagnose.Saturated_ifaces [ 1 ] -> ()
  | _ -> Alcotest.fail "expected saturation on interface 1");
  (match e.headroom with
  | [ (0, r) ] -> close "no headroom" 1.0 r
  | _ -> Alcotest.fail "expected one counterfactual")

let test_diagnose_headroom () =
  (* One fast unused-by-flow-1 interface: the counterfactual shows the
     gain. *)
  let inst =
    Instance.make ~weights:[| 1.0; 1.0 |] ~capacities:[| 2.0; 8.0 |]
      ~allowed:[| [| true; true |]; [| true; false |] |]
  in
  let e = List.nth (Diagnose.explain_all inst) 1 in
  (* Flow 1 wifi-only: max-min gives both flows 5? flows: flow0 both,
     flow1 if0 only; caps 2,8: water-fill: t: flow1 <= 2 eventually; flow0
     takes if1: flow1 = 2 - share... compute: t rises, flow1 on if0 only:
     tight at A={0,1}: (2+8)/2 = 5; A={1}: 2/1 = 2 -> flow1 = 2, flow0 = 8. *)
  close "flow1 bound" 2.0 e.rate;
  (match e.headroom with
  | [ (1, r) ] -> close "allowing if1 gives 5" 5.0 r
  | _ -> Alcotest.fail "expected counterfactual for interface 1")

let test_diagnose_no_interface () =
  let inst =
    Instance.make ~weights:[| 1.0 |] ~capacities:[| 3.0 |]
      ~allowed:[| [| false |] |]
  in
  let e = List.nth (Diagnose.explain_all inst) 0 in
  Alcotest.(check bool) "blocked" true (e.binding = Diagnose.No_interface);
  (match e.headroom with
  | [ (0, r) ] -> close "unblocking gives capacity" 3.0 r
  | _ -> Alcotest.fail "expected counterfactual")

let test_diagnose_all () =
  let inst =
    Instance.make ~weights:[| 1.0; 2.0; 1.0 |] ~capacities:[| 3.0; 10.0 |]
      ~allowed:[| [| true; false |]; [| true; true |]; [| false; true |] |]
  in
  let es = Diagnose.explain_all ~with_headroom:false inst in
  Alcotest.(check int) "three explanations" 3 (List.length es);
  let b = List.nth es 1 in
  Alcotest.(check (list int)) "b clustered with c" [ 2 ] b.cluster_flows

(* --- Cluster ------------------------------------------------------------- *)

let fig6_instance () =
  Instance.make ~weights:[| 1.0; 2.0; 1.0 |] ~capacities:[| 3.0; 10.0 |]
    ~allowed:[| [| true; false |]; [| true; true |]; [| false; true |] |]

let test_cluster_decompose () =
  let inst = fig6_instance () in
  let share = [| [| 3.0; 0.0 |]; [| 0.0; 20.0 /. 3.0 |]; [| 0.0; 10.0 /. 3.0 |] |] in
  let rates = [| 3.0; 20.0 /. 3.0; 10.0 /. 3.0 |] in
  let clusters = Cluster.decompose inst ~share ~rates in
  Alcotest.(check int) "two clusters" 2 (List.length clusters);
  let c_a = Cluster.find_cluster_of_flow clusters 0 in
  Alcotest.(check (list int)) "a alone" [ 0 ] c_a.flows;
  Alcotest.(check (list int)) "a on iface 0" [ 0 ] c_a.ifaces;
  let c_b = Cluster.find_cluster_of_flow clusters 1 in
  Alcotest.(check (list int)) "b with c" [ 1; 2 ] c_b.flows;
  close ~tol:1e-9 "cluster rate" (10.0 /. 3.0) c_b.norm_rate

let test_cluster_check_accepts_maxmin () =
  let inst = fig6_instance () in
  let a = Maxmin.solve inst in
  Alcotest.(check int)
    "no violations" 0
    (List.length (Cluster.check inst ~share:a.share ~rates:a.rates))

let test_cluster_check_flags_wfq_split () =
  (* The WFQ allocation for Fig. 1(c): a gets 1.5, b gets 0.5 — flow b is
     not in the best cluster it could reach. *)
  let inst =
    Instance.make ~weights:[| 1.0; 1.0 |] ~capacities:[| 1.0; 1.0 |]
      ~allowed:[| [| true; true |]; [| false; true |] |]
  in
  let share = [| [| 1.0; 0.5 |]; [| 0.0; 0.5 |] |] in
  let rates = [| 1.5; 0.5 |] in
  let violations = Cluster.check inst ~share ~rates in
  Alcotest.(check bool) "violations found" true (violations <> []);
  let has_not_best =
    List.exists
      (function Cluster.Not_in_best_cluster _ -> true | _ -> false)
      violations
  in
  (* Flows a and b share interface 2 at different rates: an
     unequal-rates-in-cluster violation. *)
  let has_unequal =
    List.exists
      (function Cluster.Unequal_rates_in_cluster _ -> true | _ -> false)
      violations
  in
  Alcotest.(check bool) "unequal or not-best" true
    (has_not_best || has_unequal)

let test_cluster_check_flags_idle_interface () =
  let inst =
    Instance.make ~weights:[| 1.0 |] ~capacities:[| 1.0; 1.0 |]
      ~allowed:[| [| true; true |] |]
  in
  (* Flow only uses interface 0, wasting interface 1. *)
  let share = [| [| 1.0; 0.0 |] |] in
  let rates = [| 1.0 |] in
  let violations = Cluster.check inst ~share ~rates in
  let has_waste =
    List.exists
      (function Cluster.Interface_not_work_conserving _ -> true | _ -> false)
      violations
  in
  Alcotest.(check bool) "waste detected" true has_waste

let test_instance_validation () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Instance.make: non-positive weight") (fun () ->
      ignore
        (Instance.make ~weights:[| -1.0 |] ~capacities:[| 1.0 |]
           ~allowed:[| [| true |] |]));
  Alcotest.check_raises "ragged matrix"
    (Invalid_argument "Instance.make: allowed has a ragged row") (fun () ->
      ignore
        (Instance.make ~weights:[| 1.0 |] ~capacities:[| 1.0; 2.0 |]
           ~allowed:[| [| true |] |]))

let test_instance_accessors () =
  let inst = fig6_instance () in
  Alcotest.(check int) "flows" 3 (Instance.n_flows inst);
  Alcotest.(check int) "ifaces" 2 (Instance.n_ifaces inst);
  Alcotest.(check (list int)) "flow b ifaces" [ 0; 1 ]
    (Instance.allowed_ifaces inst 1);
  Alcotest.(check (list int)) "iface 1 flows" [ 1; 2 ]
    (Instance.allowed_flows inst 1)

let () =
  Alcotest.run "flownet"
    [
      ( "maxflow",
        [
          Alcotest.test_case "classic 23" `Quick test_maxflow_classic;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "parallel paths" `Quick
            test_maxflow_parallel_paths;
          Alcotest.test_case "per-edge flow" `Quick test_maxflow_flow_on_edges;
          Alcotest.test_case "reachability" `Quick test_maxflow_reachability;
          Alcotest.test_case "random cut bound" `Slow
            test_maxflow_random_cut_bound;
        ] );
      ( "maxmin",
        [
          Alcotest.test_case "single iface weighted" `Quick
            test_maxmin_single_iface_weighted;
          Alcotest.test_case "fig1c" `Quick test_maxmin_fig1c;
          Alcotest.test_case "fig1c weighted infeasible" `Quick
            test_maxmin_fig1c_weighted_infeasible;
          Alcotest.test_case "fig6 phase 1" `Quick test_maxmin_fig6_phase1;
          Alcotest.test_case "disconnected flow" `Quick
            test_maxmin_disconnected_flow;
          Alcotest.test_case "spanning cluster" `Quick
            test_maxmin_spanning_cluster;
          Alcotest.test_case "share consistency" `Quick
            test_maxmin_share_consistency;
          Alcotest.test_case "feasibility" `Quick test_maxmin_feasibility;
          Alcotest.test_case "unused iface" `Quick
            test_maxmin_unused_iface_capacity;
          Alcotest.test_case "random clustering certificate" `Slow
            test_maxmin_random_satisfies_clustering;
        ] );
      ( "rat",
        [
          Alcotest.test_case "arithmetic" `Quick test_rat_arithmetic;
          Alcotest.test_case "of_float" `Quick test_rat_of_float;
          Alcotest.test_case "overflow raises" `Quick test_rat_overflow_raises;
        ] );
      ( "exact-solver",
        [
          Alcotest.test_case "fig1c" `Quick test_exact_fig1c;
          Alcotest.test_case "fig6" `Quick test_exact_fig6;
          Alcotest.test_case "adversarial" `Quick test_exact_adversarial_shape;
          Alcotest.test_case "random agreement" `Slow
            test_exact_random_agreement;
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "fig1c binding" `Quick test_diagnose_fig1c;
          Alcotest.test_case "headroom counterfactual" `Quick
            test_diagnose_headroom;
          Alcotest.test_case "no interface" `Quick test_diagnose_no_interface;
          Alcotest.test_case "explain all" `Quick test_diagnose_all;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "decompose fig6" `Quick test_cluster_decompose;
          Alcotest.test_case "accepts max-min" `Quick
            test_cluster_check_accepts_maxmin;
          Alcotest.test_case "flags WFQ split" `Quick
            test_cluster_check_flags_wfq_split;
          Alcotest.test_case "flags idle interface" `Quick
            test_cluster_check_flags_idle_interface;
          Alcotest.test_case "instance validation" `Quick
            test_instance_validation;
          Alcotest.test_case "instance accessors" `Quick
            test_instance_accessors;
        ] );
    ]
