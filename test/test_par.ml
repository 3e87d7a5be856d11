(* Tests for the Domain-based parallel executor (lib/par) and the sweep
   layer built on it.

   The load-bearing property is determinism: results merge positionally,
   so everything derived from a [Par.run] — a sweep's rendered reports,
   a captured event trace — must be byte-identical whatever [jobs] is.
   The pool-mechanics cases (empty input, jobs > tasks, exception
   propagation) pin the executor's edge behavior. *)

module Par = Midrr_par.Par

(* --- pool mechanics ----------------------------------------------------- *)

let test_empty () =
  Alcotest.(check int) "no tasks" 0 (Array.length (Par.run [||]));
  Alcotest.(check int) "no tasks, explicit jobs" 0
    (Array.length (Par.run ~jobs:4 [||]))

let test_order () =
  let n = 37 in
  let expected = Array.init n (fun i -> i * i) in
  (* jobs = 64 > tasks exercises the clamp; jobs = 1 the serial path. *)
  List.iter
    (fun jobs ->
      let results = Par.run ~jobs (Array.init n (fun i () -> i * i)) in
      Alcotest.(check (array int))
        (Printf.sprintf "task-order results at jobs=%d" jobs)
        expected results)
    [ 1; 2; 4; 64 ]

let test_map () =
  Alcotest.(check (array int))
    "map" [| 2; 4; 6 |]
    (Par.map ~jobs:2 (fun x -> 2 * x) [| 1; 2; 3 |])

exception Boom of int

let test_exception () =
  let ran = Array.make 8 false in
  let tasks =
    Array.init 8 (fun i () ->
        ran.(i) <- true;
        if i = 2 || i = 5 then raise (Boom i))
  in
  (match Par.run ~jobs:3 tasks with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom i ->
      Alcotest.(check int) "lowest-indexed failure surfaces" 2 i);
  Alcotest.(check bool) "every task still ran" true (Array.for_all Fun.id ran)

let test_split_seeds () =
  let a = Par.split_seeds ~seed:7 8 in
  Alcotest.(check (array int))
    "reproducible" a (Par.split_seeds ~seed:7 8);
  Alcotest.(check (array int))
    "prefix-stable across n"
    (Array.sub a 0 3)
    (Par.split_seeds ~seed:7 3);
  Alcotest.(check bool) "master-seed sensitive" false
    (a = Par.split_seeds ~seed:8 8);
  Alcotest.(check int) "n=0" 0 (Array.length (Par.split_seeds ~seed:7 0));
  let distinct = List.sort_uniq compare (Array.to_list a) in
  Alcotest.(check int) "substreams distinct" 8 (List.length distinct)

(* --- sweep determinism --------------------------------------------------- *)

let scenario_path = "../scenarios/fig6.scn"

let fig6 () =
  let text = In_channel.with_open_text scenario_path In_channel.input_all in
  match Midrr_sim.Scenario.parse text with
  | Ok s -> s
  | Error e -> Alcotest.failf "fig6 scenario: %s" e

let test_sweep_jobs_identical () =
  let scenarios = [ ("fig6", fig6 ()) ] in
  let seeds = Array.to_list (Par.split_seeds ~seed:42 3) in
  let engines =
    [ Midrr_sim.Scenario.Engine_fast; Midrr_sim.Scenario.Engine_ref ]
  in
  let render jobs =
    Midrr_sim.Sweep.render
      (Midrr_sim.Sweep.run ~jobs ~scenarios ~seeds ~engines ())
  in
  let base = render 1 in
  Alcotest.(check bool) "sweep renders something" true (String.length base > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d output identical to jobs=1" jobs)
        base (render jobs))
    [ 2; 4 ]

(* The fig6 event trace — the golden-trace observable — captured by
   concurrent domains each running its own simulation must equal the
   serial capture byte for byte. *)
let test_trace_parallel_identical () =
  let scenario = fig6 () in
  let capture () =
    let buf = Buffer.create 65536 in
    let count = ref 0 in
    let sink ~time ev =
      if !count < 5_000 then begin
        Buffer.add_string buf
          (Midrr_obs.Jsonl.to_string ~time (Midrr_obs.Event.decode ev));
        Buffer.add_char buf '\n';
        incr count
      end
    in
    ignore (Midrr_sim.Scenario.run ~sink ~engine:Midrr_sim.Scenario.Engine_fast
              scenario);
    Buffer.contents buf
  in
  let serial = capture () in
  Alcotest.(check bool) "trace non-empty" true (String.length serial > 0);
  let parallel = Par.run ~jobs:4 (Array.make 4 capture) in
  Array.iteri
    (fun i trace ->
      Alcotest.(check bool)
        (Printf.sprintf "parallel capture %d matches serial" i)
        true
        (String.equal serial trace))
    parallel

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "empty task array" `Quick test_empty;
          Alcotest.test_case "results in task order, jobs clamped" `Quick
            test_order;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "exception propagates, pool drains" `Quick
            test_exception;
          Alcotest.test_case "split_seeds" `Quick test_split_seeds;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep identical at jobs 1/2/4" `Slow
            test_sweep_jobs_identical;
          Alcotest.test_case "fig6 trace identical under parallel capture"
            `Slow test_trace_parallel_identical;
        ] );
    ]
