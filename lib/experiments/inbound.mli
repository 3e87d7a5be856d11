(** Study: ideal in-network inbound scheduling vs the client HTTP proxy
    (paper §5, Figures 4 and 5).

    The paper describes two ways to schedule {e inbound} traffic: the
    "ideal implementation" — a proxy inside the provider's network running
    miDRR at packet granularity just before the last-mile links (Fig. 4) —
    and the deployable compromise it actually builds, the in-client HTTP
    byte-range proxy (Fig. 5).  The paper evaluates only the latter; this
    study runs both on the Figure 10 workload ({!Fig10.links}: two
    fluctuating links, three flows, b willing to use both) and compares
    how closely each tracks the max-min reference of every phase's judged
    window.

    Expected shape: both systems track the reference; the in-network
    packet scheduler is tighter (it reacts within a packet rather than a
    chunk and pays no request RTT), quantifying what the paper gave up for
    deployability. *)

type phase = {
  label : string;
  reference : float array;  (** per-flow Mb/s (a, b, c) *)
  in_network : float array;  (** packet-level proxy of Fig. 4 *)
  client_http : float array;  (** byte-range proxy of Fig. 5 *)
}

type result = {
  phases : phase list;
  mean_err_in_network : float;  (** mean relative error vs reference, % *)
  mean_err_client_http : float;
}

val run : unit -> result

val print : Format.formatter -> result -> unit
