(** Exact rational arithmetic on 64-bit numerator/denominator.

    Backs the exact max-min solver ({!Maxmin_exact}).  Every operation
    normalizes by the GCD and raises {!Overflow} if a result cannot be
    represented — for the small calibration instances the solvers are
    cross-validated on, overflow never triggers, and when it would, the
    caller falls back to the float solver rather than silently losing
    precision. *)

type t
(** A normalized rational: positive denominator, gcd(|num|, den) = 1. *)

exception Overflow

val make : int64 -> int64 -> t
[@@midrr.lint.allow "R9"] (* test_flownet builds expected values with these *)
(** [make num den].  Raises [Division_by_zero] when [den = 0]. *)

val of_int : int -> t [@@midrr.lint.allow "R9"]
val zero : t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Raises [Division_by_zero]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int

val to_float : t -> float

val of_float_approx : float -> t
(** Best rational approximation with denominator at most 1_000_000, via
    continued fractions.  Exact for inputs that
    are such rationals. *)

val pp : Format.formatter -> t -> unit [@@midrr.lint.allow "R9"]
