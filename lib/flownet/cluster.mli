(** Cluster decomposition and the rate clustering property (paper §4.1).

    A max-min fair allocation partitions flows and interfaces into clusters:
    each interface serves only flows of its cluster, all flows of a cluster
    receive the same normalized rate, and every flow sits in the
    highest-rate cluster among those containing an interface it is willing
    to use (Definition 2 / Theorem 2).  This module recovers the clusters of
    a measured or computed allocation and verifies the property, which is
    how the reproduction validates Figures 8 and 11. *)

type t = {
  flows : int list;  (** member flows, ascending *)
  ifaces : int list;  (** member interfaces, ascending *)
  norm_rate : float;
      (** common normalized rate [r_i /. phi_i] of member flows; 0 for a
          cluster with no flows *)
}

val decompose :
  Instance.t -> share:float array array -> rates:float array -> t list
(** Connected components of the bipartite graph restricted to edges carrying
    rate above 1e-6 of the peak capacity.  Flows receiving
    no service and interfaces serving no flow appear as singleton clusters.
    Clusters are returned sorted by descending rate. *)

val find_cluster_of_flow : t list -> int -> t
(** The cluster containing the given flow.  Raises [Not_found]. *)

type violation =
  | Unequal_rates_in_cluster of { cluster : t; spread : float }
      (** normalized rates differ within one cluster by [spread] *)
  | Not_in_best_cluster of { flow : int; own_rate : float; better : float; via_iface : int }
      (** the flow could reach a higher-rate cluster through [via_iface] *)
  | Interface_not_work_conserving of { iface : int; used : float; capacity : float }
      (** an interface with willing flows is not saturated *)

val pp_violation : Format.formatter -> violation -> unit
[@@midrr.lint.allow "R9"] (* test_flownet, test_midrr print failed checks *)

val check :
  ?tol:float ->
  Instance.t ->
  share:float array array ->
  rates:float array ->
  violation list
(** All rate-clustering/work-conservation violations of the allocation,
    using relative tolerance [tol] (default 1e-6) for rate comparisons.
    An empty list means the allocation satisfies Theorem 2's conditions and
    is therefore weighted max-min fair. *)
