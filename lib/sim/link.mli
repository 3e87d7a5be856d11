(** Link capacity profiles.

    An interface's line rate over time: constant, or piecewise-constant
    steps (used to emulate the fluctuating WiFi links of the paper's HTTP
    experiment). *)

type t

val constant : float -> t
(** A fixed rate in bits/s (>= 0). *)

val steps : initial:float -> (float * float) list -> t
(** [steps ~initial changes] starts at [initial] and applies each
    [(time, rate)] change at its absolute time.  Times must be positive and
    strictly increasing. *)

val rate_at : t -> float -> float
(** Line rate at an absolute time (>= 0). *)

val next_change : t -> float -> float option
(** The first time strictly after the given one at which the rate changes;
    [None] for constant profiles (or after the last step). *)
