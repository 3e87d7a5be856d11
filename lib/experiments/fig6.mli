(** Experiment: three flows over two interfaces (paper §6.2, Figures 6
    and 8).

    Topology of Fig. 6(a): interface 1 at 3 Mb/s, interface 2 at 10 Mb/s;
    flow a (phi = 1) may use interface 1 only, flow b (phi = 2) both, flow
    c (phi = 1) interface 2 only.  Flow a carries 198 Mb so it completes
    near t = 66 s, flow b 604.7 Mb completing near t = 85 s, flow c is
    backlogged throughout.

    Paper shape: phase rates (3, 6.67, 3.33) Mb/s, then (8.67, 4.33) after
    a ends, then c alone at 10; the transient (Fig. 6(c)) corrects within a
    few seconds; the cluster structure (Fig. 8) is {a, if1} {b, c, if2},
    then {b, c, if1, if2}, then {c, if2}. *)

type phase = {
  label : string;
  window : Midrr_sim.Meter.window;
      (** judged over the flows active in the phase *)
}

type result = {
  series : (string * (float * float) array) list;
      (** per flow name: (time, Mb/s) at 1 s bins over the full run *)
  transient : (string * (float * float) array) list;
      (** per flow name: (time, Mb/s) at 0.25 s bins over the first 5 s *)
  completion_a : float;
  completion_b : float;
  phases : phase list;
}

val flow_a : int
val flow_b : int
val flow_c : int

val run : unit -> result

val print : Format.formatter -> result -> unit
(** Figure 6(b,c) series and phase summary. *)

val print_clusters : Format.formatter -> result -> unit
(** Figure 8: the cluster evolution. *)

val print_series :
  Format.formatter -> (string * (float * float) array) list -> unit
(** Named [(time, Mb/s)] series of one bin width as a table, Figures 6
    and 10's: a row per bin of the longest, 0.000 past a series' end. *)
