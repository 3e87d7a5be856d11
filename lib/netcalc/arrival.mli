(** Arrival curves for the traffic the repository can generate.

    Every bounded source in this codebase is token-bucket shaped: a
    {!Midrr_core.Tokenbucket} {e is} the leaky-bucket constraint
    [(sigma, rho) = (burst, rate)], and a CBR source of rate [r] and
    packet size [L] never exceeds [L + (r/8) t] bytes in [t] seconds.
    Unbounded sources (backlogged, finite-in-bulk, Poisson) have no
    arrival curve and yield no delay bound. *)

val token_bucket : rate:float -> burst:float -> Curve.t
(** [rate] in bytes/s, [burst] in bytes: the curve [burst + rate * t]. *)

val cbr : rate_bps:float -> pkt:int -> Curve.t
(** A constant-bit-rate packet source: [rate_bps] in bits/s (the
    simulator's unit), burst of one packet. *)

val aggregate : Curve.t list -> Curve.t
(** Sum of arrival curves (cross-traffic as one aggregate); the zero
    curve for the empty list. *)
