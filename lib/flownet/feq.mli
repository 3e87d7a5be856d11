(** Scale-relative epsilon comparisons for the flow-network solvers.

    Raw float [=]/[<>] on computed values is forbidden in [lib/flownet]
    and [lib/stats] by midrr-lint rule R3; tolerant comparisons route
    through this module instead, so the tolerance discipline lives in
    one place. *)

val scale_eps : ?rel:float -> float -> float
(** [scale_eps ~rel scale] is [rel *. Float.max 1.0 scale]: an absolute
    epsilon proportional to the problem's magnitude, floored so tiny
    instances do not demand sub-ulp agreement.  [rel] defaults to
    [1e-9]. *)

val approx : eps:float -> float -> float -> bool
(** [approx ~eps a b] is [|a - b| <= eps]. *)

val geq : eps:float -> float -> float -> bool
(** [geq ~eps a b] is [a >= b -. eps]: tolerant [>=]. *)

val leq : eps:float -> float -> float -> bool
(** [leq ~eps a b] is [a <= b +. eps]: tolerant [<=]. *)

val saturated : rel:float -> used:float -> cap:float -> bool
(** [saturated ~rel ~used ~cap] is [used >= cap *. (1 - rel)]: is a
    capacity within relative tolerance of fully used? *)
