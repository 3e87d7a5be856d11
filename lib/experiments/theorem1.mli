(** Experiment: the Theorem 1 counterexample (paper §2.1).

    Under interface preferences, an earliest-finishing-time scheduler
    cannot causally order packets: the relative fluid finishing order of
    the two head-of-line packets in Fig. 1(c)'s topology depends on whether
    three more flows arrive just after t = 0.  We compute exact fluid-GPS
    finishing times for both futures and report the flip. *)

type outcome = {
  finish_a : float;  (** fluid finish of flow a's head packet, seconds *)
  finish_b : float;
  first : [ `A | `B ];
}

type result = {
  without_arrivals : outcome;  (** scenario 1: no further arrivals *)
  with_arrivals : outcome;  (** scenario 2: 3 flows join interface 2 *)
  order_flips : bool;
}

val run : unit -> result
(** With the paper's [L] = 1e6 bits; the new flows arrive at 0.01 s. *)

val print : Format.formatter -> result -> unit
