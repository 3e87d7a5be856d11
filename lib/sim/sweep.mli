(** Parallel scenario sweeps over a scenario x seed x engine grid.

    The execution layer behind [midrr sweep --jobs N]: grid points are
    independent simulations, so they shard across domains via
    {!Midrr_par.Par.run}, and the merged output is positional — byte-for-
    byte identical whatever [jobs] is (each point carries its own seed and
    builds its own simulator; nothing mutable is shared). *)

type point = {
  label : string;  (** scenario name, typically the file path *)
  seed : int;
  engine : Scenario.engine;
  sched : Scenario.sched_spec option;
      (** when set, overrides each scenario's [scheduler] directive
          ([midrr sweep --sched NAME]) *)
  scenario : Scenario.t;
}

type outcome = {
  p_label : string;
  p_seed : int;
  p_engine : string;  (** ["fast"], ["ref"] or ["sharded<N>"] *)
  p_sched : string option;  (** the override's registry name, if any *)
  rendered : string;  (** the point's report, rendered under a header *)
}

val derived_seeds : ?seed:int -> int -> int list
(** [derived_seeds ~seed n] expands one master seed (default 42) into [n]
    per-point seeds via {!Midrr_par.Par.split_seeds}. *)

val run :
  ?jobs:int ->
  ?sched:Scenario.sched_spec ->
  scenarios:(string * Scenario.t) list ->
  seeds:int list ->
  engines:Scenario.engine list ->
  unit ->
  outcome array
(** Run the whole grid, sharded over [jobs] domains (see
    {!Midrr_par.Par.run} for the default and clamping), results in grid
    order. *)

val render : outcome array -> string
(** Concatenate the rendered reports in grid order. *)
