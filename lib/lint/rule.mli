(** The midrr-lint rule set.

    Each rule enforces one scheduler-specific invariant; see DESIGN.md
    section 9 for the rationale behind every rule.  Every rule runs over
    the Typedtree of the [.cmt]/[.cmti] artifacts, where callees are
    matched by resolved path and operands by type.  R6, the syntactic
    check of Par task closures, is retired: R8 judges those writes. *)

type t =
  | R1  (** no polymorphic [compare]/[=]/[Hashtbl.hash] in hot-path modules *)
  | R2  (** no [try ... with _ ->] catch-alls *)
  | R3  (** no [=]/[<>] at type [float] in flownet/stats *)
  | R4  (** no [Obj.magic], no warning suppressions *)
  | R5
      (** no top-level mutable state outside the declared allowlist, and no
          [Domain.spawn] outside the directories allowed to own domains
          (by default only [lib/par]) *)
  | R7
      (** no allocating construct in any function reachable from the
          configured decision entry points *)
  | R8
      (** no write to non-task-local mutable state inside a task closure
          passed to [Par.run] / [Par.map], or in any function reachable
          from one *)
  | R9
      (** no val in a [lib/] interface that no other unit of [lib/],
          [bin/], [bench/] or [examples/] references *)

val all : t list
val id : t -> string
val of_id : string -> t option
val title : t -> string
val hint : t -> string

val description : t -> string
(** Long-form rationale and scope, printed by [midrr-lint --explain]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val allows_of_attrs : Parsetree.attributes -> t list
(** Rule ids listed by [[@midrr.lint.allow "R1 R5"]] attributes (space-
    or comma-separated; unknown ids are ignored).  A site is suppressed
    by the attribute on its expression or binding, a file by a floating
    [[@@@midrr.lint.allow "..."]]. *)

val allow_stack :
  t list -> (t -> unit -> bool) * (t list -> (unit -> unit) -> unit)
(** [allow_stack file_allows] is [(allowed, with_allows)]: [allowed r ()]
    holds when an allow for [r] is in scope, and [with_allows allows f]
    runs [f] with [allows] in scope. *)
