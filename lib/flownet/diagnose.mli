(** Allocation diagnostics: explain {e why} a flow gets the rate it does.

    Given an instance, identify each flow's binding constraint under the
    max-min allocation: the saturated interfaces of its cluster and the
    flows it shares them with.  This turns the solver's numbers into the
    answer a user actually asks — "why is Netflix slow?" — e.g. "limited by
    interface 1 (saturated), shared with flows 2 and 3; additionally
    allowing interface 0 would raise the rate to 2.8 Mb/s".

    Flow and interface indices are row/column positions in the
    {!Instance.t}. *)

type binding =
  | Saturated_ifaces of int list
      (** the flow's cluster saturates these interfaces *)
  | No_interface  (** the flow has no allowed interface at all *)

type explanation = {
  flow : int;
  rate : float;  (** bits/s under the max-min allocation *)
  normalized : float;  (** rate / weight *)
  cluster_flows : int list;  (** flows sharing the binding cluster *)
  binding : binding;
  headroom : (int * float) list;
      (** for each interface the flow is {e not} willing to use: the rate
          it would get if it additionally allowed that interface — the
          "what if I relaxed the preference" counterfactual *)
}

val explain_all : ?with_headroom:bool -> Instance.t -> explanation list

val pp : Format.formatter -> explanation -> unit
