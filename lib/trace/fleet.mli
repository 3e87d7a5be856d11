(** Fleet-scale operation streams for the sharded engine.

    Where {!Gen} produces one user's week of flow intervals for the
    Fig. 7 concurrency analysis, this module produces the
    million-registered-flow churn workload the sharded engine is
    benchmarked on: a large long-lived flow population spread over
    block-separable interface groups (each group is one preference
    component — e.g. one user's cellular+WiFi pair aggregated at a
    proxy), overlaid with session churn drawn from the calibrated
    {!Gen} session model (so flow arrival and teardown rates are the
    paper's, not a synthetic constant), periodic weight and preference
    changes, teardown/re-register storms, and serve sweeps that keep a
    small rotating active fraction backlogged — millions of registered
    flows, thousands active, which is exactly the regime the O(active)
    engine is built for.

    The output is a {!Midrr_core.Shard_engine.op} array: replayable
    inline against a single fast engine
    ({!Midrr_core.Shard_engine.run_ops_single}) or across domains
    ({!Midrr_core.Shard_engine.run_ops}), which is how BENCH_shard
    measures scaling on identical work.  Every preference stays inside
    its interface group, so the stream is block-separable: it replays
    under [~strict:true] with zero partition conflicts at any shard
    count that divides into the group structure. *)

type params = {
  groups : int;  (** interface groups; group [g] owns ifaces [2g, 2g+1] *)
  base_flows : int;  (** long-lived registered population *)
  churn_users : int;  (** users driving the session-model churn overlay *)
  horizon : float;  (** modeled seconds *)
  active_per_group : int;  (** size of each group's rotating active window *)
  serve_every : float;  (** modeled seconds between serve sweeps *)
  serve_budget : int;  (** decisions per interface per sweep *)
  pkt_size : int;  (** bytes *)
  storm_every : int;
      (** every this many sweeps, tear down and re-register one active
          window per group (0 disables storms) *)
}

val default_params : params
[@@midrr.lint.allow "R9"] (* test_shard replays a scaled fleet from it *)
(** A small smoke-scale configuration (tens of thousands of flows). *)

val million_params : params
(** The BENCH_shard configuration: ~1M registered flows. *)

val scale : params -> float -> params
(** [scale p f] multiplies the population knobs ([base_flows],
    [churn_users]) by [f], leaving rates and the group structure
    unchanged — how the CI runs the million-flow bench reduced. *)

val ops : ?seed:int -> params -> Midrr_core.Shard_engine.op array
(** Deterministic for a given seed. *)

val registered_flows : params -> int
(** The long-lived population [base_flows], rounded to the generator's
    per-group layout (what "registered flows" means in BENCH_shard). *)
