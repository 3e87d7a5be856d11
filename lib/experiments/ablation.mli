(** Ablation: cross-interface coordination schemes where the paper's
    1-bit service flag is stressed (EXPERIMENTS.md fidelity notes).

    Two instances, each run under every coordination scheme and compared
    against the water-filling reference of its judged window
    ({!Midrr_sim.Netsim.window}):
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

type table = {
  reference : float array;
      (** the judged windows' water-filling rates, Mb/s, by flow *)
  rows : row list;
}

type result = {
  flag_policy : table;  (** flows D and B, judged over [10, 40] s *)
  multihomed : table;  (** flows 0-3, judged over [5, 25] s *)
}

val multihomed : Midrr_core.Sched_intf.packed -> Midrr_sim.Meter.window
(** Backlogged 1000 B flows on the fully multi-homed instance under the
    given scheduler, judged over [5, 25] s. *)

val run : unit -> result

val print : Format.formatter -> result -> unit
