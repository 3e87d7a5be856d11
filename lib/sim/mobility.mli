(** Mobility-driven link models.

    The paper's motivating scenario is a phone on the move: WiFi comes and
    goes with access-point range, cellular quality drifts.  This module
    produces {!Link} profiles from simple mobility processes so scenarios
    can exercise the scheduler under realistic churn:

    - {!gauss_markov}: a rate random walk with mean reversion, the standard
      first-order model for channel-quality drift;
    - {!coverage}: alternating in-range/out-of-range periods (rate drops to
      zero outside coverage), for WiFi hotspot hopping.

    Profiles are pre-sampled into piecewise-constant steps so the
    simulation stays deterministic and replayable. *)

val gauss_markov :
  ?seed:int ->
  mean:float ->
  sigma:float ->
  memory:float ->
  step:float ->
  horizon:float ->
  unit ->
  Link.t
(** A rate process sampled every [step] seconds on [0, horizon]:
    [r' = memory * r + (1 - memory) * mean + sigma * sqrt(1 - memory^2) * N(0,1)],
    clamped at 0.  [memory] in [0, 1) controls smoothness. *)

val coverage :
  ?seed:int ->
  rate_in:float ->
  on_mean:float ->
  off_mean:float ->
  horizon:float ->
  unit ->
  Link.t
(** Alternating exponential in-coverage ([rate_in]) and out-of-coverage
    (rate 0) periods starting in coverage. *)

val mean_rate : Link.t -> horizon:float -> samples:int -> float
[@@midrr.lint.allow "R9"] (* test_sim checks the profiles' means with it *)
(** Time-average of a profile, for calibrating scenarios. *)
