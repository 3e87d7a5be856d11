(** CSV export of experiment results, for external plotting.

    Each writer produces one file per figure panel with a header row;
    columns are the series the paper plots.  Paths are created inside the
    target directory, which must exist. *)

val fig6 : dir:string -> Fig6.result -> unit
(** [fig6_series.csv], [fig6_transient.csv], [fig6_phases.csv]. *)

val fig7 : dir:string -> Fig7.result -> unit
(** [fig7_cdf.csv]. *)

val fig9 : dir:string -> Fig9.result -> unit
(** [fig9_cdf.csv] (quantiles per interface count) and
    [fig9_summary.csv]. *)

val fig10 : dir:string -> Fig10.result -> unit
(** [fig10_series.csv] and [fig10_phases.csv]. *)
