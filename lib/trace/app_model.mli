(** Application behavior model for synthetic smartphone traces.

    The paper's Fig. 7 is a one-week measurement of the authors' own
    Android phones; we substitute a generative model of app usage whose
    knobs are calibrated (see {!default_mix}) to the two statistics the
    paper reports: roughly 10% of active time has 7 or more concurrent
    flows, and the maximum observed is about 35. *)

type kind =
  | Web  (** page visits: bursts of short parallel connections *)
  | Video  (** long single streams with persistent control connections *)
  | Audio  (** streaming music: long-lived single flow *)
  | Messaging  (** short frequent exchanges plus a push connection *)
  | Sync  (** background sync/poll: periodic short flows *)

type profile = {
  kind : kind;
  popularity : float;  (** relative probability of a session using the app *)
  burst_lo : int;  (** min parallel flows per activity burst *)
  burst_hi : int;  (** max parallel flows per activity burst *)
  burst_gap_mean : float;  (** seconds between bursts within a session *)
  flow_mu : float;  (** lognormal location of flow duration, ln-seconds *)
  flow_sigma : float;  (** lognormal scale *)
  long_flow_p : float;
      (** probability a burst also opens one long-lived flow *)
  long_flow_mean : float;  (** exponential mean of the long flow, seconds *)
}

val default_mix : profile list
(** The calibrated mix used by {!Gen.default_params}. *)

val name : kind -> string
[@@midrr.lint.allow "R9"] (* test_trace names a bad profile with it *)
