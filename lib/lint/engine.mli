(** The AST walker: parses OCaml source with compiler-libs and applies
    rules R1–R5.  Suppression is per-site via [[@midrr.lint.allow "R1"]]
    (attribute payload: space- or comma-separated rule ids) on an
    expression, value binding or [Pstr_eval] item, or file-wide via a
    floating [[@@@midrr.lint.allow "..."]]. *)

val allows_of_attrs : Parsetree.attributes -> Rule.t list
(** Rule ids listed by [@midrr.lint.allow "..."] attributes.  Typedtree
    attributes are Parsetree attributes, so the typed tier shares this. *)

val lint_source :
  Config.t -> file:string -> string -> (Finding.t list, string) result
(** [lint_source config ~file source] parses [source] as an interface
    when [file] ends in [.mli] and as an implementation otherwise.
    [Error _] carries a parse-error description. *)
