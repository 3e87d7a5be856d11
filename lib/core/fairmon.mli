(** Online fairness monitoring.

    Production observability for a running scheduler: sample the cumulative
    service counters periodically and check Theorem 2's max-min conditions
    over each window, pair by pair, using the directional fairness metric
    [FM = S_i/phi_i - S_j/phi_j] ({!fm}):

    - flows that both drew service through a common interface are in one
      cluster, so their normalized service must agree (|FM| small);
    - a backlogged flow merely {e willing} to use an interface another flow
      actively used must not trail it (one-sided, per Lemma 5) — being
      ahead in a different cluster is legitimate and is not flagged.

    A persistently large violation signals a preference misconfiguration
    or a scheduler defect.  The monitor is scheduler-agnostic (works over
    {!Sched_intf.packed}) and event-driven: {!create} subscribes to the
    scheduler's event stream ({!Sched_intf.Packed.subscribe}) and keeps
    the service and backlog tallies itself, so {!sample} never polls the
    scheduler's counters — only its preference configuration. *)

(** {1 Fairness accounting (paper Definition 3)}

    The directional fairness metric between flows [i] and [j] over a window
    is [FM_{i->j} = S_i/phi_i - S_j/phi_j] where [S] is bytes served in the
    window.  Theorem 3's proof bounds it by constants (Lemmas 5 and 6); the
    test suite checks those bounds on live runs through these functions. *)

val fm : s_i:float -> phi_i:float -> s_j:float -> phi_j:float -> float
(** The directional fairness metric from [i] to [j]. *)

type window
(** A measurement window anchored at the service counters observed when it
    was opened. *)

val start : Sched_intf.packed -> window
(** Snapshot the cumulative per-flow service of the scheduler. *)

val service_since : window -> Sched_intf.packed -> Types.flow_id -> int
(** Bytes served to the flow since the window opened ([S_i(t1, t2)]).
    Flows unknown at snapshot time count from zero. *)

val fm_between :
  window ->
  Sched_intf.packed ->
  phi:(Types.flow_id -> float) ->
  i:Types.flow_id ->
  j:Types.flow_id ->
  float
(** [FM_{i->j}] over the window, in bytes. *)

val normalized_service :
  window -> Sched_intf.packed -> phi:(Types.flow_id -> float) -> Types.flow_id -> float
(** [S_i /. phi_i] over the window. *)

(** {1 Online monitor} *)

type report = {
  window_index : int;
  worst_pair : (Types.flow_id * Types.flow_id) option;
      (** pair with the largest |FM| among comparable pairs *)
  worst_fm : float;  (** bytes per unit weight; 0 when no pair qualified *)
  pairs_checked : int;
}

type t

val create :
  ?alarm_threshold:float -> ?phi:(Types.flow_id -> float) -> Sched_intf.packed -> t
(** [alarm_threshold] (bytes/weight, default 10 * 1500) is the |FM| above
    which a window is counted as an alarm.  [phi] supplies rate-preference
    weights (default: all 1.0).  Subscribes to the scheduler's event
    stream, tee-ing onto any sink already installed; counters of flows
    registered before the call seed the monitor's tallies. *)

val sample : t -> report
(** Close the current window, compare it to the previous sample, and open
    the next.  The first call returns a baseline report with no pairs. *)

val alarms : t -> int
(** Windows whose worst |FM| exceeded the threshold so far. *)

val windows : t -> int

val worst_ever : t -> float
(** Largest |FM| seen over any window. *)
