(** The midrr-lint rule set.

    Each rule enforces one scheduler-specific invariant; see DESIGN.md
    sections 9 and 13 for the rationale behind every rule.  R1–R6 are
    enforced by the untyped Parsetree pass ({!Engine}); R7–R9 need
    fully-resolved identifiers and types, so they live in the typed tier
    over [.cmt] files (the [midrr.lint-typed] library). *)

type t =
  | R1  (** no polymorphic [compare]/[=]/[Hashtbl.hash] in hot-path modules *)
  | R2  (** no [try ... with _ ->] catch-alls *)
  | R3  (** no float [=]/[<>] on computed values in flownet/stats *)
  | R4  (** no [Obj.magic], no warning suppressions outside the allowlist *)
  | R5
      (** no top-level mutable state outside the declared allowlist, and no
          [Domain.spawn] outside the directories allowed to own domains
          (by default only [lib/par]) *)
  | R6
      (** no writes to mutable state captured from the enclosing scope
          inside a task closure passed to [Par.run] / [Par.map] *)
  | R7
      (** typed tier: no allocating construct in any function reachable
          from the configured decision entry points *)
  | R8
      (** typed tier: no write to non-task-local mutable state in any
          function reachable from a [Par.run] / [Par.map] task *)
  | R9
      (** typed tier: no val in a [lib/] interface that no other unit of
          [lib/], [bin/], [bench/] or [examples/] references *)

val all : t list
val id : t -> string
val of_id : string -> t option
val title : t -> string
val hint : t -> string

val description : t -> string
(** Long-form rationale and scope, printed by [midrr-lint --explain]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
