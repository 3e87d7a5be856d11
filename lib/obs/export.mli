(** Registry exporters (cold paths).

    [prometheus_string] renders every counter, gauge and histogram in
    Prometheus text exposition format: counters get a [_total] suffix,
    histograms render as summaries with [quantile] labels
    (0.5/0.9/0.99/0.999) plus [_count], [_sum] and a [_max] gauge.
    Metric names are sanitized to [[a-zA-Z0-9_]] and prefixed
    [midrr_].

    When the registry is fed by a {!Busmetrics} fold, call
    [Busmetrics.publish] first so the gauges hold the values it derives
    from its records. *)

val sanitize : string -> string

val prometheus_string : Metrics.t -> string

val write_prometheus : Metrics.t -> path:string -> unit
(** Atomic-enough file export: writes [path ^ ".tmp"], then renames
    over [path] so scrapers never observe a torn file. *)

val pp_top : Format.formatter -> Metrics.t -> unit
(** One-screen snapshot — counters and gauges as [name=value] runs,
    one quantile line per non-empty histogram. *)
