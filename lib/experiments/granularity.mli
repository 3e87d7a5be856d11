(** Ablation: scheduling granularity of the HTTP proxy (paper §6.4).

    The paper concedes its HTTP proxy "cannot support fine-grained packet
    scheduling" yet finds chunk-level control sufficient.  This experiment
    quantifies that trade-off: the same two-interface topology is scheduled
    at different byte-range chunk sizes and compared against the
    water-filling reference of each run's judged window over [10, 60] s,
    alongside a packet-granularity simulation of the identical topology.

    Expected shape: deviation from the reference grows with chunk size;
    packet-level scheduling with counter flags is essentially exact. *)

type row = {
  label : string;
  rates : float array;  (** measured per-flow Mb/s, counter-4 coordination *)
  rates_one_bit : float array;  (** same with the paper's 1-bit flag *)
  reference : float array;
  max_deviation_pct : float;
      (** worst per-flow relative deviation from the reference (counter-4) *)
  max_deviation_one_bit_pct : float;
}

type result = row list

val run : ?chunk_sizes:int list -> unit -> result
(** Default chunk sizes: 16 KiB, 64 KiB, 256 KiB, 1 MiB. *)

val print : Format.formatter -> result -> unit
