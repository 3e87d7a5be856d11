(** The delay-bound harness: analytical bounds vs. simulated delays.

    Bridges {!Midrr_netcalc} and {!Scenario}: derives each flow's arrival
    curve from its declared source and its residual service curve from
    the scenario's quanta and line rates, computes the worst-case delay
    bound, then (optionally) runs the simulation and reports each flow's
    measured enqueue-to-service delays next to the bound.  The run feeds
    each flow's events to a {!Midrr_obs.Busmetrics} fold of its own, so
    a flow's delays are that fold's aggregate sketch (recorded at 1 ns
    resolution, paired FIFO as every fold pairs them).
    test/test_bounds.ml asserts [sim <= bound] across the scenario
    corpus; [midrr bounds] prints the same table.

    The analysis is static: it uses the weights, preferences and line
    rates declared at time 0 (with the conservative {e minimum} line rate
    over the horizon for stepped profiles) and does not model [at]
    events — check {!Scenario.has_events} before trusting a bound on a
    scenario with runtime events.  Flows without an arrival curve
    (backlogged, finite, Poisson sources) get an infinite bound. *)

type discipline = Drr | Midrr
(** The two disciplines the service-curve derivation covers.  [Drr] is
    uncoordinated per-interface DRR (one deficit counter per flow and
    interface, analyzed per interface); [Midrr] is the paper's scheduler,
    whose aggregate service bound spreads the flow's turns across one
    deficit counter per allowed interface (DESIGN.md section 12). *)

val discipline_name : discipline -> string
(** ["drr"] or ["midrr"] — matches the {!Scenario.sched_names} registry. *)

type row = {
  flow : string;  (** flow name from the scenario *)
  bound : float;  (** analytical worst-case delay, seconds; may be [infinity] *)
  samples : int;  (** measured enqueue-to-service delays recorded *)
  sim_max : float;  (** largest measured delay, seconds ([nan] if none) *)
  sim_p99 : float;
  sim_p999 : float;
}

type report = { label : string; discipline : discipline; rows : row list }

val min_line_rate : Link.t -> horizon:float -> float
(** Smallest line rate (bits/s) the profile offers in [0, horizon) — the
    conservative capacity the service curves assume. *)

val analyze : discipline:discipline -> Scenario.t -> (string * float) list
(** Per-flow worst-case delay bounds (seconds), in declaration order.
    For each flow the bound is the minimum over its allowed interfaces of
    the horizontal deviation between its arrival curve and that
    interface's residual service ({!Midrr_netcalc.Service.residual}
    with quanta [weight * 1500]: the base quantum of the schedulers
    {!report} runs). *)

val report :
  ?seed:int -> label:string -> discipline:discipline -> Scenario.t -> report
(** {!analyze}, then run the scenario under the given discipline
    (overriding its [scheduler] directive) with one telemetry fold per
    flow and fill in the measured columns.  [label] names the scenario
    in output (typically the file name). *)

val pp_report : Format.formatter -> report -> unit
(** The human-readable table [midrr bounds] prints: one line per flow
    with bound, measured max/p99/p999 (milliseconds) and the tightness
    ratio [sim_max / bound]. *)

val json_of_reports : report list -> string
(** The whole run as a JSON document (infinite bounds and missing
    measurements serialize as [null]) for CI artifact upload. *)
