(** Timing, repetition and reporting shared by every workload. *)

val now_ns : unit -> int
(** Monotonic clock in integer nanoseconds (allocation-free). *)

val minor_words : unit -> int
(** Minor words allocated so far by the calling domain
    (allocation-free); the tracer's allocation counter. *)

type cfg = {
  seed : int;
  seconds : int;  (** scales every workload's fixed rep count *)
  smoke : bool;  (** 2 reps and a 1% fleet: the [dune runtest] size *)
  scenarios : string;  (** directory holding the corpus [.scn] files *)
}

val reps : cfg -> base:int -> int
(** The rep count of a workload whose count at [--seconds 10] is
    [base]: scaled linearly with [seconds], at least 2, and 2 when
    smoke-sized.  Fixed for a given [cfg], so two commits run identical
    work. *)

val median : float array -> float

val quantile : float array -> float -> float
(** Linear interpolation between closest ranks; [nan] when empty. *)

(** {1 Scaled timings}

    A shared host's speed drifts by up to 2x for minutes at a time.  So
    each timing is taken between two runs of a reference computation
    that uses nothing from the library, and scaled to a machine on which
    one reference run takes 4 ms (about its duration on an idle 2-vCPU
    VM). *)

val time_setup : reps:int -> (unit -> 'a) -> float array * 'a
(** [reps] samples of the set-up's duration in seconds, each a mean over
    repeats lasting at least 1 ms, scaled; and the last result.  Each
    sample drops and collects the previous result first. *)

type 'o phase = {
  rep_s : float array;  (** wall time of each rep, unscaled *)
  ref_s : float array;
      (** duration of the reference runs before each rep and after the
          last *)
  outcomes : 'o array;
  words : float;  (** minor words allocated inside the reps, all domains *)
  minor_gcs : int;
  major_gcs : int;
}

val run_phase : reps:int -> (unit -> 'o) -> 'o phase
(** A closed loop of [reps] reps, each timed and its GC counters read
    at its boundaries; the outputs are kept for checking afterwards. *)

val failures : check:('o -> bool) -> 'o array -> int
(** Outputs the check rejects. *)

type metric = { name : string; value : float; unit : string }

val metric : string -> string -> float -> metric
(** [metric name unit value]. *)

val e2e_metrics :
  setup_s:float array -> pkts_per_rep:int -> 'o phase -> metric list
(** [setup_s] (the median of the given set-up samples), [pkts_per_s]
    (over the median scaled rep), [minor_words_per_pkt] and
    [top_heap_mb] (read now, so call it at the end of the run). *)

val phase_layers : pkts_per_rep:int -> 'o phase -> metric list
(** The per-layer metrics of an untraced phase: [run_s_p90] (unscaled),
    [host.reference_ms], [gc.minor_collections_per_kpkt] and
    [gc.major_collections_per_kpkt]. *)

val fingerprint : cfg -> string
(** JSON object: nproc (the runtime's recommended domain count),
    compiler version, flambda, word size and seed. *)

val json_metrics : metric list -> string

val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The benchmark's last output line. *)
