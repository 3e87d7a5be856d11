(** Experiment: scheduling overhead (paper §6.3, Figure 9).

    Profiles the wall-clock cost of one miDRR scheduling decision with
    1,000 packets queued across the flows, for 4 to 16 interfaces.  Paper
    shape: the CDF shifts right as interfaces are added (more service flags
    to skip) but stays in the microsecond range — under 2.5 us at 16
    interfaces on 2008-era hardware. *)

type row = {
  n_ifaces : int;
  summary : Midrr_stats.Summary.t;  (** per-decision time in ns *)
  cdf : Midrr_stats.Cdf.t;
  supported_gbps : float;
      (** sustainable rate for 1,000-byte packets at the median decision
          cost *)
}

type result = row list

val run : ?quick:bool -> ?iface_counts:int list -> unit -> result
(** [quick] reduces the number of timed decisions (used by tests).
    Default interface counts: 4, 8, 12, 16. *)

val print : Format.formatter -> result -> unit

type flow_row = { n_flows : int; summary : Midrr_stats.Summary.t }

val run_flow_scaling : ?quick:bool -> unit -> flow_row list
(** The paper's companion claim in §6.3: "the scheduling time is
    independent of the number of flows".  Profiles the decision at a fixed
    8 interfaces while scaling the flow count (8, 32, 128, 512). *)

val print_flow_scaling : Format.formatter -> flow_row list -> unit
