(** Nested span tracer for the benchmark's traced runs.

    Spans are registered up front as named kinds and nest on a stack:
    a sink event fires inside [decide], which fires inside the
    simulator's run (the {e root} span, one per rep), so each span's
    {e self} time is its duration minus the time covered by its child
    spans.  The clock and the allocation counter are injected ([clock]
    returns integer nanoseconds, [words] minor words allocated so far),
    so tests drive the tracer with a fake clock, and the traced path
    allocates nothing itself.

    {b Sampling.}  Each span directly under the root is timed, with its
    whole subtree, with probability [1/sample_every]; an untimed subtree
    only counts its calls, so call counts stay exact.  Per-kind totals
    are scaled up from the timed calls, and the root's self time
    subtracts the estimated duration of its untimed children.

    {b Overhead model.}  A timed span costs a calibrated [span_ps]
    picoseconds of tracer work (two clock reads plus bookkeeping, see
    {!calibrate}).  Half of it falls inside the span's own interval and
    half inside its parent's, so a span's corrected self time is its
    measured self time minus half a span cost for itself and half for
    each timed child.  An untimed span costs [skip_ps], all of it inside
    its parent.  Summed over a rep the corrections remove every span's
    overhead once, which is what lets the layer self times add up to an
    untraced rep. *)

type t
type kind = int

type overhead = {
  span_ps : int;  (** one timed span, picoseconds *)
  span_words : int;  (** minor words one timed span allocates *)
  skip_ps : int;  (** one untimed span, picoseconds *)
}

val no_overhead : overhead

val create :
  ?overhead:overhead ->
  ?sample_every:int ->
  clock:(unit -> int) ->
  words:(unit -> int) ->
  root:string ->
  string list ->
  t
(** A tracer over the root kind plus the given span kinds.
    [sample_every] (default 1: time every span) must be positive. *)

val kind : t -> string -> kind
(** The id of a registered kind.  Raises [Invalid_argument] otherwise. *)

val root : t -> kind

val enter : t -> kind -> unit
(** Open a span; only the root kind opens at depth 0, and it never
    nests.  Allocation-free. *)

val exit : t -> kind -> unit
(** Close the innermost span, which must be a timed span of this kind or
    an untimed one (raises [Invalid_argument] on unbalanced use).
    Allocation-free. *)

val calibrate :
  ?bare:(unit -> unit) ->
  ?probed:(t -> unit -> unit) ->
  clock:(unit -> int) ->
  words:(unit -> int) ->
  root:string ->
  string list ->
  unit ->
  overhead
(** The overhead of a probe: medians over 5 rounds of the per-call cost
    of [probed t] over [bare] (default: nothing), each run 10,000 times
    back to back under a root of a tracer over [root] and the given
    kinds whose spans are all timed ([span_ps], [span_words]) or all
    untimed ([skip_ps]).  [probed] defaults to one empty span of the
    first non-root kind; a caller whose spans sit inside a wrapper
    passes the wrapped call, so the wrapper's own cost is counted. *)

val overhead : t -> overhead

val set_overhead : t -> overhead -> unit
(** Replace the calibration; the estimates below apply it to everything
    recorded so far. *)

(** {1 Per-kind estimates, overhead-corrected} *)

val calls : t -> kind -> int
(** Exact. *)

val self_ns : t -> kind -> float
(** Self time summed over all calls. *)

val self_words : t -> kind -> float

val incl_ns : t -> kind -> float
(** Inclusive time summed over all calls (not defined for the root). *)

val quantile_ns : t -> kind -> float -> float
(** Quantile of the inclusive duration of one timed call: the upper
    edge of the {!Midrr_stats.Log_histogram} bucket holding it (2%
    relative error); 0 when no call was timed. *)

val total_self_ns : t -> float
(** Self time summed over every kind: the estimated untraced duration
    of all root spans together. *)
