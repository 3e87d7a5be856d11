(** Filesystem driver: loads the [.cmt]/[.cmti] artifacts of the last
    [dune build] for the sources under the scanned directories, runs
    every rule, applies the baseline, and renders text or JSON
    reports. *)

type report = {
  units : int;  (** implementation units loaded *)
  findings : Finding.t list;  (** fresh findings, after baseline *)
  baselined : int;  (** findings absorbed by baseline entries *)
  stale_baseline : (string * int) list;
      (** baseline entries (key, unmatched count) that matched nothing *)
  blocked : string list;
      (** sources with no artifact, or one older than their text: the
          rules cannot certify them *)
  warnings : string list;
      (** non-fatal diagnostics, e.g. an R7 entry spec that matched no
          value *)
}

val clean : report -> bool
(** No fresh findings and no blocked source.  Stale baseline entries
    and warnings are reported but do not fail the gate. *)

val all_keys :
  ?config:Config.t ->
  root:string ->
  build_dir:string ->
  dirs:string list ->
  unit ->
  string list
(** Baseline keys of every current finding (for [--update-baseline]). *)

val scan :
  ?config:Config.t ->
  root:string ->
  build_dir:string ->
  dirs:string list ->
  baseline:Baseline.t ->
  unit ->
  report

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> string
