(** Residual service curves for DRR and miDRR.

    Derivations follow the weighted-round-robin bound of Constantin,
    Nikolaus & Schmitt (arXiv:2202.08381, with the erratum's
    [Q_k + L_k] per-competitor round allowance) adapted to deficit
    round robin, plus the classic blind-multiplexing refinement for
    constrained cross-traffic.  DESIGN.md section 12 derives both and
    states the miDRR aggregation argument; test/test_bounds.ml checks
    every bound against simulation across the scenario corpus.

    All rates are {e bytes/s}, sizes bytes, times seconds. *)

type competitor = {
  quantum : float;  (** the competitor's DRR quantum [Q_k], bytes *)
  max_pkt : float;  (** its maximum packet size [L_k], bytes *)
  arrival : Curve.t option;
      (** its arrival curve when token-bucket constrained; [None] for
          unconstrained (backlogged/Poisson) competitors *)
}

val lap_residual :
  line_rate:float ->
  quantum:float ->
  max_pkt:float ->
  deficit_cells:int ->
  competitors:competitor list ->
  Curve.t
[@@midrr.lint.allow "R9"] (* test_bounds checks both residuals residual uses *)
(** The round-robin ("lap") bound on one interface of line rate [C]:
    every full cursor lap grants the flow one service turn of at least
    its quantum [Q_i] while each competitor sends at most [Q_k + L_k]
    bytes, so the flow holds the rate-latency curve with

    [R = C * Q_i / sum_k (Q_k + L_k)]    (sum over all flows incl. i)
    [T = (sum_{k<>i} (Q_k + L_k) + deficit_cells * L_i + L_max) / C]

    [deficit_cells] is the number of deficit counters the flow's turns
    are spread across — 1 for per-interface DRR, the number of allowed
    interfaces for miDRR's aggregate bound (each counter can strand up
    to [L_i] bytes of unused deficit).  [L_max] covers the packet in
    transmission when the flow becomes backlogged. *)

val blind_residual : line_rate:float -> competitors:competitor list -> Curve.t option
[@@midrr.lint.allow "R9"]
(** The constrained-cross-traffic refinement: while the flow is
    backlogged the interface is work-conserving over its flows, so the
    flow receives at least [[C t - sum_k alpha_k t - L_max]+] whatever
    the scheduler does.  [None] unless {e every} competitor carries an
    arrival curve (one unconstrained competitor can absorb the whole
    residual). *)

val residual :
  line_rate:float ->
  quantum:float ->
  max_pkt:float ->
  deficit_cells:int ->
  competitors:competitor list ->
  Curve.t
(** The interface's residual service for the flow: the pointwise max of
    {!lap_residual} and (when available) {!blind_residual} — both are
    strict service curves for the same server, so their max is one
    too. *)
