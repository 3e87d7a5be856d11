(** Experiment: HTTP fair scheduling over fluctuating links (paper §6.4,
    Figures 10 and 11).

    Three equal-weight inbound HTTP flows over two interfaces whose speeds
    alternate: flow a may only use interface 1, flow c only interface 2,
    flow b both.  The proxy schedules byte-range chunk requests with miDRR.

    Paper shape: flows a and c each get whatever their interface provides;
    flow b always tracks the {e faster} of the two, clustering with it
    (Fig. 11) — {a, b, if1} while interface 1 is fast, {b, c, if2} while
    interface 2 is fast. *)

type phase = {
  label : string;
  window : Midrr_sim.Meter.window;  (** judged over all three flows *)
  goodput : (string * float) list;  (** per flow, Mb/s *)
  fast_flow : string;  (** which restricted flow is on the faster link *)
  b_tracks_faster : bool;
}

type result = {
  series : (string * (float * float) array) list;
      (** per flow: (time, Mb/s goodput) at 1 s bins *)
  phases : phase list;
}

val links : (Midrr_core.Types.iface_id * Midrr_sim.Link.t) list
(** Interfaces 1 and 2, whose speeds swap at 11, 18 and 29 s. *)

val windows : (float * float) list
(** One measurement window inside each phase. *)

val horizon : float
(** The run's end, 45 s.  {!Inbound} runs these links, windows and
    horizon too. *)

val run : unit -> result

val print : Format.formatter -> result -> unit
(** Figure 10: goodput series and per-phase summary. *)

val print_clusters : Format.formatter -> result -> unit
(** Figure 11: cluster structure per phase. *)
