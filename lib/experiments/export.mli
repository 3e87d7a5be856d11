(** CSV export of experiment results, for external plotting.

    Each writer produces one file per figure panel with a header row;
    columns are the series the paper plots.  Paths are created inside the
    target directory, which must exist. *)

val write_csv :
  path:string -> header:string list -> rows:string list list -> unit
(** Low-level writer; raises [Sys_error] on IO failure and
    [Invalid_argument] when a row's width differs from the header. *)

val series_csv :
  path:string -> (string * (float * float) array) list -> unit
(** Write named [(time, value)] series sharing a time base:
    [time, name1, name2, ...].  Shorter series are padded with empty
    cells. *)

val cdf_csv : path:string -> Midrr_stats.Cdf.t -> unit
(** Two columns: value, cumulative probability. *)

val fig6 : dir:string -> Fig6.result -> unit
(** [fig6_series.csv], [fig6_transient.csv], [fig6_phases.csv]. *)

val fig7 : dir:string -> Fig7.result -> unit
(** [fig7_cdf.csv]. *)

val fig9 : dir:string -> Fig9.result -> unit
(** [fig9_cdf.csv] (quantiles per interface count) and
    [fig9_summary.csv]. *)

val fig10 : dir:string -> Fig10.result -> unit
(** [fig10_series.csv] and [fig10_phases.csv]. *)
