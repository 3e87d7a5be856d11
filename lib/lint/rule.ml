type t = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

let all = [ R1; R2; R3; R4; R5; R6; R7; R8; R9 ]

let id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"

let of_id = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | _ -> None

let title = function
  | R1 -> "polymorphic compare/equality in hot-path module"
  | R2 -> "catch-all exception handler"
  | R3 -> "float equality on computed values"
  | R4 -> "Obj.magic or warning suppression"
  | R5 -> "top-level mutable state / Domain.spawn outside lib/par"
  | R6 -> "shared mutable capture in a Par task closure"
  | R7 -> "allocation reachable from a decision entry point"
  | R8 -> "shared mutable write reachable from a Par task"
  | R9 -> "exported value that no program references"

let hint = function
  | R1 ->
      "use a typed comparator (Int.compare, Int.equal, Float.equal, \
       String.equal) instead of the polymorphic primitive"
  | R2 ->
      "match the specific exceptions you expect; a wildcard handler \
       swallows Out_of_memory, Stack_overflow and programming errors"
  | R3 ->
      "compare through an epsilon helper (Midrr_flownet.Feq) or, if exact \
       equality is intended, say so with [@midrr.lint.allow \"R3\"]"
  | R4 ->
      "remove Obj.magic / the warning suppression, or add the file to the \
       lint allowlist with a justification"
  | R5 ->
      "allocate the state inside a constructor function, use Atomic.t, or \
       annotate the binding with [@midrr.lint.allow \"R5\"] and a \
       domain-safety justification; for Domain.spawn, route parallelism \
       through Midrr_par.Par instead of spawning domains directly"
  | R6 ->
      "make each task write only through its own return value (Par merges \
       results positionally); if the shared write is provably disjoint or \
       synchronised, say so with [@midrr.lint.allow \"R6\"]"
  | R7 ->
      "restructure the hot path so the construct disappears (sentinels \
       instead of options, flat float cells, preallocated buffers, \
       top-level loops instead of closures); for a deliberate amortized \
       or cold-path allocation, annotate the site with \
       [@midrr.lint.allow \"R7\"] or add a baseline entry with a review \
       justification"
  | R8 ->
      "pass task-owned state in explicitly and return results by value \
       (Par merges positionally), replace the shared cell with Atomic.t, \
       or, if the write is provably disjoint, say so with \
       [@midrr.lint.allow \"R8\"]"
  | R9 ->
      "drop the value from the .mli if its own unit still uses it, delete \
       it (and the tests that test only it) if nothing does, or keep it \
       with [@@midrr.lint.allow \"R9\"] on the val and a one-line reason \
       when a test checks through it behaviour a program has"

(* Long-form rationale behind each rule, printed by
   `midrr-lint --explain`.  The one-line [title]/[hint] pair stays the
   per-finding rendering; this is the self-serve CI documentation. *)
let description = function
  | R1 ->
      "The polymorphic primitives (compare, =, <>, Hashtbl.hash and the \
       List helpers built on them) walk values generically through a C \
       loop, defeating the dense-int/flat-float layout work on the \
       decision path.  Every module on the per-decision hot path (the \
       fast engine, Active_ring, Pifo, the obs sinks, the telemetry \
       plane — Metrics, Busmetrics, Span, Log_histogram — and the \
       netcalc curve algebra) must compare through typed primitives so \
       each comparison compiles to one machine instruction.  Scope: the \
       configured hot-path module list."
  | R2 ->
      "A `try ... with _ ->` handler silently swallows Out_of_memory, \
       Stack_overflow and programming errors such as Invalid_argument, \
       turning scheduler bugs into wrong schedules instead of crashes.  \
       Handlers must name the exceptions they expect; a named catch-all \
       that re-raises is fine.  Scope: every scanned file."
  | R3 ->
      "Float equality on computed values is almost always a rounding bug: \
       max-min rate allocation and the stats summaries iterate to \
       fixpoints whose exact bit patterns depend on summation order.  \
       Compare through the scale-relative epsilon helper \
       (Midrr_flownet.Feq), or annotate intentional exact-zero guards.  \
       Scope: lib/flownet and lib/stats."
  | R4 ->
      "Obj.magic defeats the type system; [@warning]/[@warnerror] \
       suppressions hide dead code and fragile matches from review.  \
       Both need an allowlist entry or an annotation with a \
       justification.  Scope: every scanned file."
  | R5 ->
      "Top-level mutable state (refs, Hashtbls, arrays created at module \
       initialization) is shared by every domain once the scheduler is \
       sharded, and Domain.spawn outside the executor layer creates \
       unmanaged parallelism the deterministic merge cannot order.  \
       State belongs inside constructor functions; cross-domain counters \
       use Atomic.t; domains are owned by lib/par alone.  Scope: every \
       scanned file (spawn allowlist: lib/par)."
  | R6 ->
      "A task closure handed to Par.run/Par.map that writes a ref, \
       mutable field, array or Bytes cell captured from the enclosing \
       scope races with its sibling tasks.  This untyped pass sees only \
       writes literally inside the closure; R8 is the typed, \
       interprocedural upgrade.  Scope: every scanned file."
  | R7 ->
      "The typed zero-allocation proof.  Over the .cmt Typedtree, the \
       call graph is built from the configured decision entry points \
       (Drr_engine.decide, next_packet_noalloc, Pifo \
       push/min_rank/pop_key/pop_at_most/remove, the WFQ program's \
       rank/floor_rank/on_service, \
       Active_ring's int-slot ops \
       is_empty/length/head/linked/push_back/insert_before/remove/next, \
       the obs sink emit paths, and the telemetry hot ops — Metrics incr/add/set_gauge/observe, Log_histogram \
       observe/observe_ns, Busmetrics.on_event, Span enter/exit) and \
       every reachable function is checked for allocating constructs: \
       closure creation, \
       tuple/record/variant/constructor blocks, array literals, partial \
       application, boxed-float returns, and calls to allocating stdlib \
       externals.  Raise-only error paths are exempt, with no carve-out \
       for the event path: producers refill one event record.  This turns \
       the runtime Gc.minor_words gate into a static proof with blame \
       locations; `dune build @crosscheck` runs both on the decision path \
       and must find them agreeing.  Scope: `midrr-lint --typed` / \
       `dune build @lint-typed`."
  | R8 ->
      "The typed, interprocedural upgrade of R6: starting from every \
       function or closure handed to Par.run/Par.map as a task, the \
       analysis walks the call graph and flags (a) writes to mutable \
       state captured from outside the task, including state smuggled \
       one or more calls deep via parameters of functions whose \
       summaries say they write them, and (b) writes to module-level \
       mutable state anywhere in the task's reach.  State allocated \
       inside the task's own region is exempt; Atomic.* is the \
       sanctioned cross-domain primitive; lib/par itself (the \
       synchronization owner) is excluded.  This is the race detector \
       required before flows are partitioned across domains.  Scope: \
       `midrr-lint --typed` / `dune build @lint-typed`."
  | R9 ->
      "No export without a caller.  Every explicit top-level val of a \
       lib/ interface (.mli) must be referenced by another unit of the \
       programs: lib/, bin/, bench/ and examples/.  A reference is an \
       identifier in any expression of those units, top-level `let () =` \
       included, matched by its resolved path, so the values an `include` \
       of a functor application brings in count.  test/ is not a caller: \
       surface kept for a test carries [@@midrr.lint.allow \"R9\"] on its \
       val with the reason.  Vals an `include` brings into the .mli are \
       skipped.  Units without an .mli (lib/lint/typed/*.ml, \
       lib/core/wfq.ml) are out of scope.  Scope: `midrr-lint --typed` / \
       `dune build @lint-typed`."

let equal a b = String.equal (id a) (id b)
let compare a b = String.compare (id a) (id b)
