(** Empirical cumulative distribution functions.

    Used throughout the evaluation harness to regenerate the paper's CDF
    figures (Fig. 7: concurrent flows, Fig. 9: scheduling time). *)

type t
(** An immutable empirical CDF over float samples. *)

val of_samples : float array -> t
(** Build the empirical CDF of a non-empty sample set. *)

val of_weighted : (float * float) list -> t
(** [of_weighted [(v, w); ...]] builds a CDF where value [v] carries
    probability mass proportional to weight [w >= 0].  Used for
    time-weighted distributions (e.g. fraction of {e time} with k flows).
    Raises [Invalid_argument] if every weight is zero or the list is
    empty. *)

val eval : t -> float -> float
[@@midrr.lint.allow "R9"] (* tests read Fig. 7 and Fig. 9's CDFs with it *)
(** [eval t x] is P(X <= x). *)

val quantile : t -> q:float -> float
(** [quantile t ~q] with [0 <= q <= 1] is the smallest sample value [v] with
    [eval t v >= q]. *)

val support : t -> float array
[@@midrr.lint.allow "R9"] (* test_stats counts the steps points prints *)
(** Distinct sample values in increasing order. *)

val points : t -> (float * float) array
(** The CDF as [(value, cumulative-probability)] steps, suitable for
    plotting or golden-file comparison. *)
