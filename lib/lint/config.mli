(** Repo-specific lint configuration: which files each rule applies to,
    and where the typed tier roots its reachability analyses. *)

type t = {
  hot_path_modules : string list;
      (** lowercase repo-relative module paths without extension
          (["lib/core/drr_engine"]) subject to R1.  A bare basename is
          accepted as a deprecated fallback — see {!hot_path_match}. *)
  float_sensitive_dirs : string list;
      (** repo-relative directory prefixes subject to R3 *)
  warning_allowlist : string list;
      (** repo-relative files allowed to carry [@@@ocaml.warning] (R4) *)
  domain_spawn_dirs : string list;
      (** repo-relative directory prefixes allowed to call [Domain.spawn]
          (R5); everything else must go through [Midrr_par.Par].  The
          typed tier also excludes these directories from R8: the
          executor layer is the synchronization owner. *)
  typed_entry_points : string list;
      (** R7 roots: display-name specs of the decision entry points
          (["Drr_engine.decide"], ["Pifo.push"], ...).  A spec ending in
          [".*"] matches every value under that prefix. *)
  par_task_entries : string list;
      (** R8 roots: display-name suffixes of the executor's
          task-accepting entry points (["Par.run"], ["Par.map"]). *)
}

val default : t

val module_path_of_file : string -> string
(** Repo-relative path without extension (["lib/core/drr_engine.ml"]
    becomes ["lib/core/drr_engine"]). *)

type hot_match =
  | Hot_path  (** the repo-relative path matches an entry *)
  | Hot_basename_deprecated
      (** only the basename matches — treated as hot for safety, but the
          driver surfaces a deprecation warning: scope the config entry
          by path *)
  | Not_hot

val hot_path_match : t -> string -> hot_match

val is_hot_path : t -> string -> bool
(** [true] for both {!Hot_path} and {!Hot_basename_deprecated}. *)

val is_float_sensitive : t -> string -> bool
val warning_allowed : t -> string -> bool
val domain_spawn_allowed : t -> string -> bool
