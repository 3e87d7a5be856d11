(** Piecewise-linear curves for network calculus.

    A curve is a non-negative-time function [f : R+ -> R] represented as
    an ordered array of affine segments; the last segment extends to
    infinity.  Arrival curves are concave (token buckets: [affine]),
    service curves are convex ([rate_latency]), and the min-plus algebra
    on these classes stays piecewise linear, so every operation here is
    exact — no sampling, no discretization.

    Units are the repository's wire units: cumulative {e bytes} over
    {e seconds}.  See DESIGN.md section 12 for how the bound harness uses
    this module. *)

type t

val affine : burst:float -> rate:float -> t
(** The token-bucket arrival curve [t -> burst + rate * t] (value [burst]
    at [t = 0], i.e. the right-limit of the leaky-bucket constraint
    [alpha(t) = sigma + rho t]).  Requires [burst >= 0] and [rate >= 0]. *)

val rate_latency : rate:float -> latency:float -> t
(** The service curve [t -> rate * max 0 (t - latency)].  Requires
    [rate >= 0] and [latency >= 0]. *)

val line : rate:float -> t
(** [affine ~burst:0.0 ~rate]: a constant-rate server with no latency. *)

val zero : t
(** The identically-zero curve. *)

val eval : t -> float -> float
[@@midrr.lint.allow "R9"] (* test_bounds' algebra properties read curves *)
(** Value at a time ([>= 0]; negative times evaluate to 0). *)

val sum : t -> t -> t
(** Pointwise sum (aggregating arrival curves). *)

val sub : t -> t -> t
(** Pointwise difference; may go negative (clamp with {!pos}). *)

val max_curve : t -> t -> t
(** Pointwise maximum, with breakpoints inserted at crossings.  Two
    strict service curves for the same node combine into a (better)
    strict service curve this way. *)

val pos : t -> t
(** [max_curve c zero]: the non-negative part [c]+. *)

val hdev : alpha:t -> beta:t -> float
(** Horizontal deviation [sup_t (inf { d | alpha t <= beta (t + d) })] —
    the worst-case delay bound for [alpha]-constrained arrivals through a
    server offering service curve [beta].  [infinity] when [alpha]'s
    long-run rate exceeds [beta]'s.  Exact on piecewise-linear curves:
    the supremum is attained at a breakpoint of [alpha] or at a preimage
    of a breakpoint of [beta]. *)

val vdev : alpha:t -> beta:t -> float
(** Vertical deviation [sup_t (alpha t - beta t)] — the worst-case
    backlog bound. *)
