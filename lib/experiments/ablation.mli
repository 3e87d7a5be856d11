(** Ablation: cross-interface coordination schemes where the paper's
    1-bit service flag is stressed (EXPERIMENTS.md fidelity notes).

    Two instances, each run under every coordination scheme and compared
    against the water-filling reference:
    - {e service-flag policy}: interfaces of 6 and 4 Mb/s, flow D allowed
      on both and flow B on the first only; the reference gives both
      5 Mb/s;
    - {e fully multi-homed flows}: four flows over three asymmetric
      interfaces where every flow of the slow interfaces is also served
      on the fast one, so Algorithm 3.2's skip loop consumes every flag
      in one lap and degenerates to round robin.

    Expected shape: the 1-bit flag deviates on both; the counter-flag
    extension recovers the reference, as does the full-information
    oracle; naive per-interface DRR and WFQ deviate most. *)

type row = {
  label : string;
  rates : float array;  (** measured steady rates in Mb/s, by flow *)
}

type result = {
  flag_policy : row list;  (** flows D and B *)
  multihomed_reference : float array;  (** water-filling rates, Mb/s *)
  multihomed : row list;  (** flows 0-3 *)
}

val multihomed_reference : unit -> float array
(** Water-filling rates of the fully multi-homed instance, Mb/s. *)

val multihomed_rates : Midrr_core.Sched_intf.packed -> float array
(** Backlogged 1000 B flows on the fully multi-homed instance under the
    given scheduler: each flow's average rate in Mb/s over [5, 25] s. *)

val run : unit -> result

val print : Format.formatter -> result -> unit
