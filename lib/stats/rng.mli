(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    simulation and synthetic workload is reproducible from a single integer
    seed.  The generator is SplitMix64 (Steele, Lea & Flood 2014): tiny
    state, excellent statistical quality for simulation purposes, and cheap
    splitting for independent substreams. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds yield identical
    streams. *)

val split : t -> t
(** [split t] derives a statistically independent substream and advances
    [t].  Use one substream per independent model component. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform float in [lo, hi).  Requires [lo <= hi]. *)

val int : t -> bound:int -> int
(** Uniform integer in [0, bound).  Requires [bound > 0]. *)

val int_range : t -> lo:int -> hi:int -> int
(** Uniform integer in [lo, hi] inclusive.  Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean ([mean > 0]). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed sample (Box–Muller). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal sample: [exp (gaussian ~mu ~sigma)]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
