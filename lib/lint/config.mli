(** Repo-specific lint configuration: which files each rule applies to,
    and where R7 and R8 root their reachability analyses. *)

type t = {
  hot_path_modules : string list;
      (** lowercase repo-relative module paths without extension
          (["lib/core/drr_engine"]) subject to R1 *)
  float_sensitive_dirs : string list;
      (** repo-relative directory prefixes subject to R3 *)
  domain_spawn_dirs : string list;
      (** repo-relative directory prefixes allowed to call [Domain.spawn]
          (R5); everything else must go through [Midrr_par.Par].  R8
          also excludes these directories: the executor layer is the
          synchronization owner. *)
  typed_entry_points : string list;
      (** R7 roots: display-name specs of the decision entry points
          (["Drr_engine.decide"], ["Pifo.push"], ...).  A spec ending in
          [".*"] matches every value under that prefix. *)
  par_task_entries : string list;
      (** R8 roots: display-name suffixes of the executor's
          task-accepting entry points (["Par.run"], ["Par.map"]). *)
}

val default : t

val is_hot_path : t -> string -> bool
(** Whether a repo-relative source file ([lib/core/drr_engine.ml], or
    its [.mli]) is one of {!t.hot_path_modules}. *)

val under_dir : string -> string -> bool
(** [under_dir file dir]: the repo-relative [file] lies below [dir]. *)

val is_float_sensitive : t -> string -> bool
val domain_spawn_allowed : t -> string -> bool
