(** Experiment: the canonical examples of paper Figure 1 and §1.

    Four scenarios over two flows:
    - (a) one 2 Mb/s interface, no preferences;
    - (b) two 1 Mb/s interfaces, both flows willing to use both;
    - (c) two 1 Mb/s interfaces, flow b restricted to interface 2;
    - (c') same as (c) with rate preference phi_b = 2 phi_a (infeasible
      under the interface preference; work conservation must win).

    Each scenario runs under miDRR, naive per-interface DRR, per-interface
    WFQ, round robin and the full-information oracle, and is compared
    against the water-filling reference of its judged window
    ({!Midrr_sim.Netsim.window}).  The paper's claims: WFQ/naive DRR give
    (1.5, 0.5) in (c) while miDRR gives (1, 1); in (c') both flows still
    get 1 Mb/s. *)

type scenario = {
  label : string;
  description : string;
  reference : float array;
      (** the window's water-filling rates, Mb/s, flows a then b *)
  measured : (string * float array) list;
      (** per algorithm: measured steady rates in Mb/s *)
}

type result = scenario list

val run : ?horizon:float -> unit -> result

val print : Format.formatter -> result -> unit
