(** Study: bandwidth aggregation across many interfaces (paper §1).

    The introduction's forward-looking preference: "use all the interfaces
    at the same time to give all the available bandwidth to a single
    application".  This study grows the interface count from 1 to 16
    (heterogeneous rates), points one aggregating flow at all of them
    alongside a population of single-homed flows, and measures over a
    judged window, [5, 30] s:

    - the aggregate efficiency: total carried bits (the columns of the
      window's share matrix) over total offered capacity (work
      conservation at scale);
    - the aggregating flow's rate against the water-filling reference.

    Expected shape: efficiency stays ~1.0 at every width and the
    aggregator's measured rate tracks the reference. *)

type row = {
  n_ifaces : int;
  efficiency : float;  (** carried / offered over all interfaces *)
  aggregator_rate : float;  (** Mb/s *)
  aggregator_reference : float;
  min_utilization : float;  (** worst single interface *)
}

type result = row list

val run : ?iface_counts:int list -> unit -> result
(** Default widths: 1, 2, 4, 8, 16. *)

val print : Format.formatter -> result -> unit
