(** Ratchet-only baseline: a committed multiset of pre-existing finding
    keys that are tolerated; everything else fails the gate. *)

type t

val of_keys : string list -> t
[@@midrr.lint.allow "R9"] (* the lint tests build baselines with it *)

val normalize_line : string -> string
[@@midrr.lint.allow "R9"] (* test_lint checks the normalisation key applies *)
(** Collapse whitespace runs and trim, so a baselined site survives
    re-indentation. *)

val key : source_line:string -> Finding.t -> string
(** The baseline key of a finding: rule id, file, and the normalized
    text of the offending source line (tab-separated). *)

val load : string -> (t, string) result
(** Missing file loads as the empty baseline. *)

val save : string -> keys:string list -> unit

val apply : t -> (Finding.t * string) list -> Finding.t list * int * (string * int) list
(** [apply t findings_with_keys] is [(fresh, baselined, stale)]: the
    findings not absorbed by the baseline, how many were absorbed, and
    the baseline entries (with multiplicity) that matched nothing —
    stale entries that should be deleted. *)
