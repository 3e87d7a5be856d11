(** Filesystem driver: walks source directories, lints every [.ml]/[.mli],
    applies the baseline, and renders text or JSON reports. *)

type report = {
  files_scanned : int;
  findings : Finding.t list;  (** fresh findings, after baseline *)
  baselined : int;  (** findings absorbed by baseline entries *)
  stale_baseline : (string * int) list;
      (** baseline entries (key, unmatched count) that matched nothing *)
  parse_errors : (string * string) list;
  warnings : string list;
      (** non-fatal diagnostics, e.g. hot-path entries matched only by
          their deprecated basename fallback *)
}

val clean : report -> bool
(** No fresh findings and no parse errors.  Stale baseline entries and
    warnings are reported but do not fail the gate. *)

val lint_string : ?config:Config.t -> file:string -> string -> Finding.t list
[@@midrr.lint.allow "R9"] (* the lint tests run the rules on fixtures by it *)
(** Lint in-memory source (test fixtures).  Raises [Invalid_argument] on
    parse errors. *)

val collect_keys :
  ?config:Config.t ->
  root:string ->
  dirs:string list ->
  unit ->
  int * (Finding.t * string) list * (string * string) list * string list
(** [(files_scanned, findings_with_baseline_keys, parse_errors,
    warnings)] before baseline application — the building block the CLI
    uses to merge the untyped and typed tiers under one baseline. *)

val scan :
  ?config:Config.t ->
  root:string ->
  dirs:string list ->
  baseline:Baseline.t ->
  unit ->
  report
[@@midrr.lint.allow "R9"] (* test_lint runs the CLI's untyped scan by it *)

val all_keys :
  ?config:Config.t -> root:string -> dirs:string list -> unit -> string list
(** Baseline keys of every current finding (for [--update-baseline]). *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> string
