(* Scale-relative float comparisons.  Every tolerant comparison in the
   flownet solvers goes through these helpers so the tolerance discipline
   is auditable in one place (and enforced by midrr-lint rule R3: a raw
   float [=]/[<>] on a computed value fails the gate). *)

let scale_eps ?(rel = 1e-9) scale = rel *. Float.max 1.0 scale
let approx ~eps a b = Float.abs (a -. b) <= eps
let geq ~eps a b = a >= b -. eps
let leq ~eps a b = a <= b +. eps
let saturated ~rel ~used ~cap = used >= cap *. (1.0 -. rel)
