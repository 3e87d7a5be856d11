open Midrr_core

type outcome = { finish_a : float; finish_b : float; first : [ `A | `B ] }

type result = {
  without_arrivals : outcome;
  with_arrivals : outcome;
  order_flips : bool;
}

let outcome_of (res : Pgps_fluid.result) =
  let finish_a = res.finish_times.(0).(0)
  and finish_b = res.finish_times.(1).(0) in
  { finish_a; finish_b; first = (if finish_a < finish_b then `A else `B) }

(* The paper's L = 1e6 bits; the new flows arrive at epsilon = 0.01 s. *)
let packet_bits = 1e6
let epsilon = 0.01

let run () =
  let l_bytes = int_of_float (packet_bits /. 8.0) in
  let rate = Types.mbps 1.0 in
  (* Flow a: one packet of L bits, may use both interfaces.
     Flow b: one packet of L/2 bits, interface 2 only. *)
  let base_arrivals = [| [ (l_bytes, 0.0) ]; [ (l_bytes / 2, 0.0) ] |] in
  let scenario1 : Pgps_fluid.spec =
    {
      weights = [| 1.0; 1.0 |];
      capacities = [| rate; rate |];
      allowed = [| [| true; true |]; [| false; true |] |];
      arrivals = base_arrivals;
    }
  in
  (* Scenario 2: three long-lived flows arrive at epsilon, willing to use
     interface 2 only; flow b's fluid rate collapses to 1/4. *)
  let big = 100 * l_bytes in
  let scenario2 : Pgps_fluid.spec =
    {
      weights = [| 1.0; 1.0; 1.0; 1.0; 1.0 |];
      capacities = [| rate; rate |];
      allowed =
        [|
          [| true; true |];
          [| false; true |];
          [| false; true |];
          [| false; true |];
          [| false; true |];
        |];
      arrivals =
        [|
          [ (l_bytes, 0.0) ];
          [ (l_bytes / 2, 0.0) ];
          [ (big, epsilon) ];
          [ (big, epsilon) ];
          [ (big, epsilon) ];
        |];
    }
  in
  let without_arrivals = outcome_of (Pgps_fluid.run scenario1) in
  let with_arrivals = outcome_of (Pgps_fluid.run scenario2) in
  {
    without_arrivals;
    with_arrivals;
    order_flips = without_arrivals.first <> with_arrivals.first;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "f_a=%.4fs f_b=%.4fs -> %s finishes first" o.finish_a
    o.finish_b
    (match o.first with `A -> "p_a" | `B -> "p_b")

let print ppf r =
  Format.fprintf ppf "@[<v>Theorem 1 counterexample (fluid PGPS)@,";
  Format.fprintf ppf "scenario 1 (no arrivals):    %a@," pp_outcome
    r.without_arrivals;
  Format.fprintf ppf "scenario 2 (3 flows arrive): %a@," pp_outcome
    r.with_arrivals;
  Format.fprintf ppf
    "finishing order %s -> a causal earliest-finishing-time scheduler is \
     impossible@,"
    (if r.order_flips then "FLIPS" else "does not flip (unexpected)");
  Format.fprintf ppf "@]"
