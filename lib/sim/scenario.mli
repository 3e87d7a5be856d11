(** Declarative simulation scenarios.

    A small text language for describing an experiment — interfaces with
    capacity profiles, flows with preferences and sources, runtime events
    and measurement windows — so that topologies can be explored from the
    command line (`midrr run FILE`) without writing OCaml.  One directive
    per line; [#] starts a comment.

    {v
    # Fig. 6 as a scenario file
    scheduler midrr counter=4
    iface 1 constant 3Mb
    iface 2 steps 10Mb 40:5Mb
    flow a weight=1 ifaces=1 backlogged pkt=1500
    flow b weight=2 ifaces=1,2 finite bytes=75.6MB pkt=1500
    flow c weight=1 ifaces=2 cbr rate=2Mb pkt=1200
    at 50 weight c 3
    at 60 allow c 1
    measure 10 40
    run 100
    v}

    Directives:
    - [scheduler midrr|drr|wfq|rr] with optional [counter=K] (midrr only);
    - [iface ID constant RATE] or [iface ID steps RATE T:RATE ...], with
      [ID] an integer in [0..65535] (as in [ifaces=], [allow], [deny]);
    - [flow NAME weight=W ifaces=I,J SOURCE], where SOURCE is
      [backlogged pkt=N] | [finite bytes=B pkt=N] | [cbr rate=R pkt=N] |
      [poisson rate=R pkt=N] | [tb rate=R burst=B pkt=N] (token-bucket
      constrained arrivals, [burst >= pkt] — see {!Netsim.source});
    - [at T weight NAME W], [at T allow NAME IFACE],
      [at T deny NAME IFACE], [at T stop NAME];
    - [measure T0 T1] (repeatable): report rates over the window, plus the
      water-filling reference for flows alive throughout it;
    - [run T]: the horizon (required, last).

    Rates accept [kb]/[Mb]/[Gb] suffixes (bits/s); byte sizes accept
    [kB]/[MB]/[GB]. *)

type t
(** A parsed scenario. *)

type flow_spec = {
  fs_name : string;
  fs_weight : float;
  fs_ifaces : int list;
  fs_source : Netsim.source;
      (** what the flow sends, as declared in the file: a
          [backlogged], [finite], [cbr], [poisson] or [tb] source, with
          no [stop] (an [at T stop NAME] line removes the flow) *)
}

(** The scheduling discipline a scenario (or a [--sched] override)
    selects.  [Sched_midrr] carries the optional [counter=K] knob. *)
type sched_spec =
  | Sched_midrr of int option
  | Sched_drr
  | Sched_wfq  (** per-interface WFQ ({!Midrr_core.Prog_wfq}) *)
  | Sched_rr  (** per-interface round robin ({!Midrr_core.Prog_rr}) *)
  | Sched_sprio  (** strict priority ({!Midrr_core.Prog_sprio}) *)
  | Sched_srpt  (** shortest remaining backlog ({!Midrr_core.Prog_srpt}) *)
  | Sched_edf  (** earliest deadline first ({!Midrr_core.Prog_edf}) *)
  | Sched_lstf  (** least slack time first ({!Midrr_core.Prog_lstf}) *)

val sched_names : string list
(** Every discipline name accepted by [scheduler NAME] and [--sched]. *)

val sched_of_name : string -> sched_spec option
(** Look a discipline up by its registry name. *)

val sched_name : sched_spec -> string
(** The registry name ([Sched_midrr _] prints as ["midrr"]). *)

type window_report = {
  t0 : float;
  t1 : float;
  rates : (string * float) list;  (** measured Mb/s per flow name *)
  reference : (string * float) list;
      (** water-filling Mb/s for flows alive throughout the window *)
}

type report = {
  windows : window_report list;
  completions : (string * float) list;
      (** finite flows and their completion times *)
}

type engine =
  | Engine_fast
      (** the default O(active) engine ({!Midrr_core.Drr_engine}) *)
  | Engine_ref
      (** the reference list-and-hashtable engine
          ({!Midrr_core.Drr_engine_ref}) — the executable spec, selectable
          with [midrr run --engine ref] *)
  | Engine_sharded of int
      (** the fast engine partitioned across the given number of shards
          ({!Midrr_core.Shard_engine}, routed inline) — selectable with
          [midrr run --engine sharded --shards N] *)

val parse : string -> (t, string) result
(** Parse scenario text; the error names the offending line.  Besides
    syntax, it rejects interface ids that are not integers in
    [0..65535], a repeated [iface] id or [flow] name, [counter=K] unless
    [K] is an integer [>= 1], an [at] line naming a flow the file does
    not declare, and an [at T weight|allow|deny NAME] line with [T] at
    or after NAME's first [at ... stop].  Numbers must also be in range:
    - every number is finite ([nan] and [inf] are rejected);
    - times ([at], step times, [measure]) are [>= 0], and [run] is [> 0];
    - every [measure T0 T1] window has [0 <= T0 < T1 <= run];
    - interface rates are [>= 0], source rates [> 0];
    - weights, declared or set by [at T weight], lie in [[1e-3, 1e3]];
    - a positive rate [R] must be low enough that one packet at it still
      advances the clock at the horizon:
      [run +. 8 *. pkt_min /. R > run], where [pkt_min] is the file's
      smallest [pkt=];
    - and low enough that one link at it carries at most [2^30] (about
      1.07e9) such packets before the horizon:
      [R *. run /. (8 *. pkt_min) <= 2^30].  This is checked after the
      clock rule, at the rate's line.

    So a parsed scenario always runs to its horizon in bounded time, and
    reports rates that mean something. *)

(** {1 Introspection}

    Read-only views of a parsed scenario, used by the delay-bound
    analyzer ({!Bounds}) to derive arrival and service curves without
    re-parsing the file. *)

val sched_spec : t -> sched_spec
(** The discipline the [scheduler] directive selected (default
    [Sched_midrr None]). *)

val flow_specs : t -> flow_spec list
(** Flows in declaration order.  {!run} assigns flow ids by this order
    (the [n]-th spec gets id [n]). *)

val iface_profiles : t -> (int * Link.t) list
(** Declared interfaces with their capacity profiles. *)

val horizon : t -> float
(** The [run T] horizon. *)

val has_events : t -> bool
(** Whether any [at] directives are present.  Runtime events change
    weights or preferences mid-run, which invalidates a static
    service-curve analysis. *)

val make_sched :
  ?engine:engine -> sched_spec -> Midrr_core.Sched_intf.packed
(** Instantiate a discipline from its spec.  [engine] (default
    {!Engine_fast}) selects the implementation for [midrr]/[drr]; every
    other discipline has a single implementation and ignores it. *)

val run :
  ?sink:Midrr_obs.Sink.t ->
  ?metrics:Midrr_obs.Busmetrics.t ->
  ?spans:Midrr_obs.Span.t ->
  ?ticks:float * (time:float -> unit) ->
  ?seed:int ->
  ?engine:engine ->
  ?sched:(unit -> Midrr_core.Sched_intf.packed) ->
  t ->
  report
(** Build the simulation and execute it.  [sink] receives the run's full
    event stream (see {!Netsim.create}); `midrr run --trace` streams it
    to a JSONL file.  [metrics] and [spans] attach the telemetry plane
    (see {!Netsim.create}); [ticks = (interval, f)] calls [f] every
    [interval] seconds of simulation time up to the horizon — `midrr run
    --metrics` flushes the Prometheus file and `--top` prints snapshots
    from such a tick.  [seed] (see {!Netsim.create}) drives the
    stochastic sources; sweeps vary it per grid point.  [engine]
    (default {!Engine_fast}) picks the scheduler implementation for
    [midrr]/[drr] scenarios; both must produce identical behavior, so
    this only matters for cross-checking and benchmarking.  [wfq]/[rr]
    scenarios ignore it.  [sched], when given, builds the scheduler
    instance itself — overriding the scenario's [scheduler] directive
    and [engine] — which is how [--sched] overrides work and how the
    replay oracle injects a pre-subscribed instance. *)

val run_text :
  ?sink:Midrr_obs.Sink.t ->
  ?metrics:Midrr_obs.Busmetrics.t ->
  ?spans:Midrr_obs.Span.t ->
  ?ticks:float * (time:float -> unit) ->
  ?seed:int ->
  ?engine:engine ->
  ?sched:(unit -> Midrr_core.Sched_intf.packed) ->
  string ->
  (report, string) result
(** [parse] then [run]. *)

val pp_report : Format.formatter -> report -> unit
