(** Reference weighted max-min fair allocator (progressive filling).

    The paper proves miDRR converges to the weighted max-min fair rate
    allocation subject to interface preferences (Theorem 3) and notes the
    allocation itself can be computed offline as a convex program.  This
    module computes it combinatorially: raise a uniform normalized rate [t]
    (flow [i] demands [phi_i * t]) as far as max-flow feasibility allows,
    freeze the flows that are bottlenecked (identified from the min-cut of
    the feasibility network), and repeat on the rest.

    The result is exact up to the binary-search tolerance and serves as
    ground truth for simulator measurements in tests and benches. *)

type allocation = {
  rates : float array;  (** per-flow total rate, bits/s *)
  share : float array array;
      (** [share.(i).(j)]: rate of flow [i] routed through interface [j];
          rows sum to [rates.(i)], columns sum to at most the interface
          capacity *)
  normalized : float array;  (** [rates.(i) /. weights.(i)] *)
}

val solve : ?tol:float -> Instance.t -> allocation
(** Compute the weighted max-min allocation for backlogged flows.  [tol] is
    the relative precision of the binary search (default [1e-9]).  Flows
    with no allowed interface receive rate 0. *)

val is_feasible : Instance.t -> demands:float array -> bool
[@@midrr.lint.allow "R9"] (* test_flownet checks solve's capacity bound *)
(** Can the given per-flow demand vector be routed within interface
    capacities and preferences? *)

val total_capacity : Instance.t -> float [@@midrr.lint.allow "R9"]
(** Sum of capacities over interfaces that at least one flow may use. *)
