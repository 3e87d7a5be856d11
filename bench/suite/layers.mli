(** Span probes around the public entry points of each layer.

    The benchmark reaches the layers only from outside [lib/]: a
    scheduler wrapped behind {!Midrr_core.Sched_intf} (handed to
    [Scenario.run ~sched] or [Proxy.create ~sched]), a timed sink around
    a consumer such as [Busmetrics.sink], and a replay that calls
    {!Midrr_core.Drr_engine} directly the way
    [Shard_engine.run_ops_single] does. *)

open Midrr_core

(** Span kinds every traced run registers. *)

val sched_decide : string
val sched_enqueue : string
val obs_sink : string

val drr_ops : string list
(** [drr_engine.add_flow] ... [drr_engine.serve], in the order of
    {!replay_kinds}. *)

type sched_probe = {
  tr : Tracer.t;
  k_decide : Tracer.kind;
  k_enqueue : Tracer.kind;
  mutable nones : int;  (** decisions that returned [None] *)
  mutable drops : int;  (** enqueues refused *)
}

val sched_probe : Tracer.t -> sched_probe

val wrap_sched : sched_probe -> Sched_intf.packed -> Sched_intf.packed
(** The same scheduler with [next_packet] and [enqueue] traced and
    counted; every other operation passes straight through. *)

val sched_calibration : unit -> (unit -> unit) * (Tracer.t -> unit -> unit)
(** [(bare, probed)] for {!Tracer.calibrate}: a decision on an idle
    scheduler, plain and through {!wrap_sched}, so the calibrated span
    costs include the wrapper's. *)

val timed_sink : Tracer.t -> Tracer.kind -> Midrr_obs.Sink.t -> Midrr_obs.Sink.t

type replay_kinds = {
  add_flow : Tracer.kind;
  remove_flow : Tracer.kind;
  set_weight : Tracer.kind;
  set_allowed : Tracer.kind;
  enqueue : Tracer.kind;
  serve : Tracer.kind;
}

val replay_kinds : Tracer.t -> replay_kinds

type replay_counts = { mutable serve_nones : int; mutable enqueue_drops : int }

val replay :
  Tracer.t ->
  replay_kinds ->
  replay_counts ->
  Drr_engine.t ->
  Shard_engine.op array ->
  Shard_engine.run_stats
(** Apply the ops to the engine as [Shard_engine.run_ops_single] does,
    with one span per engine call (one per decision for serves), and
    return the same statistics (no events recorded). *)
