(* Tests for token-bucket shaping. *)

open Midrr_core

let close ?(tol = 1e-9) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.6g, got %.6g" what expected got

let test_bucket_starts_full () =
  let b = Tokenbucket.create ~rate:1000.0 ~burst:5000.0 in
  close "full" 5000.0 (Tokenbucket.available b ~now:0.0);
  Alcotest.(check bool) "burst fits" true
    (Tokenbucket.try_consume b ~now:0.0 ~bytes:5000);
  Alcotest.(check bool) "empty now" false
    (Tokenbucket.try_consume b ~now:0.0 ~bytes:1)

let test_bucket_refills () =
  let b = Tokenbucket.create ~rate:1000.0 ~burst:5000.0 in
  ignore (Tokenbucket.try_consume b ~now:0.0 ~bytes:5000);
  close "after 2s" 2000.0 (Tokenbucket.available b ~now:2.0);
  close "caps at burst" 5000.0 (Tokenbucket.available b ~now:100.0)

let test_bucket_time_until () =
  let b = Tokenbucket.create ~rate:1000.0 ~burst:5000.0 in
  ignore (Tokenbucket.try_consume b ~now:0.0 ~bytes:5000);
  close "wait for 3000" 3.0 (Tokenbucket.time_until b ~now:0.0 ~bytes:3000);
  close "already there" 0.0 (Tokenbucket.time_until b ~now:10.0 ~bytes:3000);
  Alcotest.(check bool) "oversized" true
    (Tokenbucket.time_until b ~now:0.0 ~bytes:6000 = Float.infinity)

let test_bucket_boundary_burst () =
  (* Requesting exactly the burst is satisfiable, not "oversized": the
     tolerant comparison must also absorb a burst computed by float
     arithmetic (0.3 * 15000 is not exactly 4500). *)
  let b = Tokenbucket.create ~rate:1000.0 ~burst:5000.0 in
  ignore (Tokenbucket.try_consume b ~now:0.0 ~bytes:1);
  let wait = Tokenbucket.time_until b ~now:0.0 ~bytes:5000 in
  Alcotest.(check bool) "bytes = burst is finite" true (Float.is_finite wait);
  Alcotest.(check bool) "consumable after the wait" true
    (Tokenbucket.try_consume b ~now:wait ~bytes:5000);
  let fuzzy = Tokenbucket.create ~rate:1000.0 ~burst:(0.3 *. 15000.0) in
  ignore (Tokenbucket.try_consume fuzzy ~now:0.0 ~bytes:1);
  let wait = Tokenbucket.time_until fuzzy ~now:0.0 ~bytes:4500 in
  Alcotest.(check bool) "computed burst is finite" true (Float.is_finite wait);
  Alcotest.(check bool) "consumable at the boundary" true
    (Tokenbucket.try_consume fuzzy ~now:wait ~bytes:4500)

let test_bucket_long_term_rate () =
  (* Draining as fast as allowed yields the fill rate. *)
  let b = Tokenbucket.create ~rate:1000.0 ~burst:1500.0 in
  let sent = ref 0 and now = ref 0.0 in
  while !now < 100.0 do
    if Tokenbucket.try_consume b ~now:!now ~bytes:500 then sent := !sent + 500
    else now := !now +. Tokenbucket.time_until b ~now:!now ~bytes:500
  done;
  let rate = Float.of_int !sent /. 100.0 in
  if Float.abs (rate -. 1000.0) > 60.0 then
    Alcotest.failf "long-term rate %.1f not ~1000" rate

let test_bucket_set_rate () =
  let b = Tokenbucket.create ~rate:1000.0 ~burst:2000.0 in
  ignore (Tokenbucket.try_consume b ~now:0.0 ~bytes:2000);
  Tokenbucket.set_rate b ~now:0.0 500.0;
  close "slower refill" 500.0 (Tokenbucket.available b ~now:1.0)

let () =
  Alcotest.run "tokenbucket"
    [
      ( "tokenbucket",
        [
          Alcotest.test_case "starts full" `Quick test_bucket_starts_full;
          Alcotest.test_case "refills" `Quick test_bucket_refills;
          Alcotest.test_case "time until" `Quick test_bucket_time_until;
          Alcotest.test_case "boundary bytes = burst" `Quick
            test_bucket_boundary_burst;
          Alcotest.test_case "long-term rate" `Quick
            test_bucket_long_term_rate;
          Alcotest.test_case "set rate" `Quick test_bucket_set_rate;
        ] );
    ]
