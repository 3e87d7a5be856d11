(** Fluid generalized processor sharing across multiple interfaces.

    The idealized reference system of paper §2.1: at every instant, the
    backlogged flows receive the weighted max-min fair rates subject to the
    interface preferences (computed with {!Midrr_flownet.Maxmin}), and
    packets drain as fluid.  Between arrival/completion events the rates are
    constant, so the evolution is simulated epoch by epoch.

    Two uses in this repository: computing ideal packet finishing times for
    the Theorem 1 counterexample (the finishing {e order} under PGPS depends
    on future arrivals when interface preferences are present), and serving
    as the fluid ideal that miDRR's packetized rates are compared against in
    the convergence experiments. *)

type spec = {
  weights : float array;
  capacities : float array;
  allowed : bool array array;
  arrivals : (int * float) list array;
      (** per flow, [(size_bytes, arrival_time)] in non-decreasing arrival
          order *)
}

type result = {
  finish_times : float array array;
      (** [finish_times.(i).(k)]: fluid completion time of flow [i]'s [k]-th
          packet; [infinity] if it never completes *)
  epochs : (float * float array) list;
      (** [(epoch_start_time, per-flow rates bits/s)] in time order *)
}

val run : ?horizon:float -> spec -> result
(** Simulate until every packet finishes or [horizon] (default 1e6 s) is
    reached.  Raises [Invalid_argument] on shape mismatches or unsorted
    arrivals. *)
