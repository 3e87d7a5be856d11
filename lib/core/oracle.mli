(** The omniscient comparator the paper rejects (§3).

    Before introducing the service flag, the paper considers the "obvious
    solution": interfaces exchange rate information and compute whether
    serving a flow leads to the max-min fair solution — and rejects it as
    requiring "an impractical amount of state information ... as well as
    interfaces to know their own instantaneous rates".  This module
    implements that oracle as an upper-bound baseline: it is told every
    interface's line rate, recomputes the water-filling allocation whenever
    the backlogged set changes, and schedules each interface by serving the
    eligible flow farthest behind its target share.

    It matches the reference essentially exactly — at the cost of a global
    max-flow computation per backlog change and per-rate bookkeeping that
    miDRR's one bit replaces.  Useful in ablations to separate "error from
    the 1-bit coordination" from "error inherent to packetization". *)

include Sched_intf.S

val create : ?queue_capacity:int -> capacity:(Types.iface_id -> float) -> unit -> t
(** [capacity j] must return interface [j]'s line rate in bits/s — the
    omniscient knowledge the paper's algorithm avoids needing. *)

val packed : t -> Sched_intf.packed

val recomputations : t -> int
(** Water-filling solves performed so far (the oracle's coordination
    cost). *)

val target_share : t -> flow:Types.flow_id -> iface:Types.iface_id -> float
(** The flow's current target rate on the interface, bits/s (0 when not
    scheduled there). *)

(** UPS-style schedule replay: record a golden schedule from one
    discipline, replay it as rank assignments over the {!Sched_prog}
    substrate, and measure how closely another run reproduces it. *)
module Replay : sig
  type step = {
    r_flow : Types.flow_id;
    r_iface : Types.iface_id;
    r_bytes : int;
  }
  (** One recorded service: [r_flow] sent [r_bytes] on [r_iface]. *)

  val recorder : unit -> Midrr_obs.Sink.raw * (unit -> step array)
  (** A sink collecting [Serve] events, and the finished schedule in
      service order. *)

  val record : Sched_intf.packed -> unit -> step array
  (** [record sched] subscribes a recorder to [sched] (see
      {!Sched_intf.Packed.subscribe}); call the returned closure after
      the run to obtain the schedule. *)

  val sched : step array -> Sched_intf.packed
  (** The replay scheduler: each interface serves its recorded sequence
      in order whenever the scripted flow is backlogged; flows the
      schedule never routes through an interface are served only when no
      scripted candidate is eligible (work conservation is kept). *)

  type comparison = {
    golden_total : int;
    candidate_total : int;
    matched : int;  (** summed per-interface longest common prefix *)
    exact : bool;
  }

  val compare_schedules :
    golden:step array -> candidate:step array -> comparison
  (** Per-interface longest-common-prefix agreement between two
      schedules; cross-interface interleaving is ignored as a timing
      artifact. *)

  val fraction : comparison -> float
  (** [matched / golden_total] (1.0 for an empty golden schedule). *)
end
