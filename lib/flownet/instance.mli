(** Description of a multi-interface scheduling instance: the bipartite
    graph of the paper's Figure 2.

    [weights.(i)] is flow [i]'s rate preference (phi, must be > 0);
    [capacities.(j)] is interface [j]'s line rate in bits/s (>= 0);
    [allowed.(i).(j)] is the interface-preference entry pi_ij. *)

type t = {
  weights : float array;
  capacities : float array;
  allowed : bool array array;
}

val make :
  weights:float array -> capacities:float array -> allowed:bool array array -> t
(** Validate shapes and positivity; raises [Invalid_argument] on a ragged
    matrix, non-positive weight or negative capacity. *)

val n_flows : t -> int
val n_ifaces : t -> int

val allowed_ifaces : t -> int -> int list
[@@midrr.lint.allow "R9"] (* test_props checks generated instances by it *)
(** Interfaces flow [i] is willing to use, ascending. *)

val allowed_flows : t -> int -> int list
(** Flows willing to use interface [j], ascending. *)

val pp : Format.formatter -> t -> unit
[@@midrr.lint.allow "R9"] (* tests print counterexample instances with it *)
