(** Descriptive statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on the empty array. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val total : float array -> float
[@@midrr.lint.allow "R9"] (* test_stats checks the sum mean and describe use *)
(** Kahan-compensated sum. *)

val percentile : float array -> p:float -> float
[@@midrr.lint.allow "R9"] (* test_stats checks median's interpolation by it *)
(** [percentile xs ~p] with [0 <= p <= 100], linear interpolation between
    closest ranks ("type 7", the numpy/R default).  [nan] on the empty
    array. *)

val median : float array -> float
(** 50th percentile. *)

val jain_index : float array -> float
(** Jain's fairness index [(sum x)^2 / (n * sum x^2)]: 1 for perfectly equal
    positive allocations, down to 1/n in the most unequal case.  [nan] on
    the empty array or when all samples are zero. *)

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max : float;
}
(** One-shot summary of a sample.  [p999] is the 99.9th percentile —
    the tail the delay-bound harness (test/test_bounds.ml) checks
    against analytical worst cases. *)

val describe : float array -> t
(** Compute all fields of {!t} in one pass over a sorted copy. *)
