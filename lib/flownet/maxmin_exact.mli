(** Exact weighted max-min solver over rationals (small instances).

    Progressive filling in closed form: by the deficiency (Hall) condition,
    a uniform normalized rate [t] (flow [i] demanding [phi_i * t]) is
    feasible iff for every subset [A] of active flows

    {v sum_{i in A} phi_i * t  <=  C(N(A)) - (frozen demand inside A) v}

    where [N(A)] is the union of interfaces the flows of [A] may use.  The
    water level of each round is therefore the exact minimum over subsets
    of [(C(N(A)) - frozen(A)) / phi(A)], and the flows of every tight
    subset freeze at that level.  Subset enumeration is exponential, so
    this solver is for calibration: cross-validating {!Maxmin}'s
    float/binary-search answers in the test suite, at up to ~12 flows.

    All arithmetic is {!Rat}-exact; {!Rat.Overflow} propagates if 64-bit
    rationals cannot represent an intermediate value. *)

type instance = {
  weights : Rat.t array;  (** phi, positive *)
  capacities : Rat.t array;  (** interface rates, non-negative *)
  allowed : bool array array;
}

val solve_floats : Instance.t -> float array
[@@midrr.lint.allow "R9"] (* the exact reference tests hold Maxmin.solve to *)
(** Convenience: convert, solve exactly, return floats. *)
