(** The six workloads, from the paper's Fig. 6 to the fleet replay.

    Each is a closed loop of reps over inputs built once from the seed.
    [prepare] times the set-up (several runs), computes the expected
    output, and runs one untimed warm-up rep, which also counts the
    packets a rep hands out.  The caller then times [rep] and checks
    every output with [check]; a traced run additionally calls
    [trace]. *)

type outcome =
  | Report of { report : Midrr_sim.Scenario.report; serves : int }
      (** a simulator run's report, and the telemetry fold's serve count
          ([-1] without telemetry) *)
  | Stats of Midrr_core.Shard_engine.run_stats  (** a fleet replay *)
  | Phases of float array list
      (** proxy goodput (Mb/s) of flows a, b, c in each phase window *)

type traced = {
  layers : Harness.metric list;
  attempted : int;  (** traced reps *)
  failed : int;  (** traced reps whose output failed the check *)
}

type prepared = {
  reps : int;  (** timed reps for this configuration *)
  setup_s : float array;  (** durations of the repeated set-up *)
  setup_layers : Harness.metric list;
      (** [scenario.parse_ms] or [fleet.gen_s] *)
  pkts_per_rep : int;
  rep : unit -> outcome;
  check : outcome -> bool;
  trace : unit -> traced;
      (** the traced measurements, made over traced reps alternating with
          untraced ones *)
}

val names : string list

val prepare : Harness.cfg -> string -> prepared
(** Raises [Invalid_argument] on an unknown workload name and [Failure]
    when a scenario file does not parse. *)

val layer_units : (string * string) list
(** Every per-layer metric name with its unit, in output order. *)

val complete_layers : Harness.metric list -> Harness.metric list
(** The metrics of [layer_units] in order, taking values from the given
    list and 0 for a layer the workload does not reach.  Raises
    [Invalid_argument] on a name outside [layer_units]. *)
