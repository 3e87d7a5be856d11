(* Locate and read the [.cmt] and [.cmti] artifacts a normal [dune
   build] leaves under [_build], map each back to its repo-relative
   source, and check freshness by content digest (mtime-independent:
   dune rewrites artifacts freely). *)

type result = {
  loaded : Callgraph.input list;
  interfaces : Export_rule.interface list;
  warnings : string list;  (* unreadable or stale cmts, with detail *)
  stale : string list;  (* sources whose cmt predates the current text *)
  missing : string list;  (* scanned .ml/.mli files with no artifact *)
}

let is_relative = Filename.is_relative

(* Walk [dir] recursively collecting .cmt and .cmti paths. *)
let rec collect_cmts dir acc =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then
          if String.equal name ".git" then acc else collect_cmts path acc
        else if
          Filename.check_suffix name ".cmt"
          || Filename.check_suffix name ".cmti"
        then path :: acc
        else acc)
      acc (Sys.readdir dir)
  else acc

(* Walk [root]/[d] for the sources that must have an artifact: every
   .ml and .mli. *)
let rec collect_sources root rel acc =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Array.fold_left
      (fun acc name ->
        if
          (String.length name > 0 && Char.equal name.[0] '.')
          || String.equal name "_build" || String.equal name "_opam"
        then acc
        else collect_sources root (Filename.concat rel name) acc)
      acc (Sys.readdir abs)
  else if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
  then rel :: acc
  else acc

let load ~root ~build_dir ~dirs () =
  let cmts = List.sort String.compare (collect_cmts build_dir []) in
  (* A cmt keeps only the summaries of its typing environments; R3
     rebuilds them ([Envaux]) to see through abbreviations such as
     [Float.t], from the .cmi files that sit beside the artifacts. *)
  Compmisc.init_path ();
  List.iter Load_path.add_dir
    (List.sort_uniq String.compare (List.map Filename.dirname cmts));
  Envaux.reset_cache ();
  let loaded = ref [] and interfaces = ref [] in
  let warnings = ref [] and stale = ref [] in
  let seen_sources = Hashtbl.create 64 in
  (* The text a cmt was compiled from: the repo file, or, for a unit
     dune generates (a library wrapper, [dune__exe], [build_info.ml]),
     its copy in the build directory.  Generated units carry the
     module aliases that cross-unit paths go through, so they load
     wherever the lint runs from; they hold no finding of their own. *)
  let source_of sf =
    List.find_opt Sys.file_exists
      [ Filename.concat root sf; Filename.concat build_dir sf ]
  in
  let fresh sf digest =
    match (source_of sf, digest) with
    | None, _ -> false
    | Some src, Some digest when not (String.equal digest (Digest.file src)) ->
        stale := sf :: !stale;
        warnings :=
          Printf.sprintf
            "stale cmt for %s: source changed since the last build — run \
             [dune build] and retry"
            sf
          :: !warnings;
        false
    | Some _, _ -> true
  in
  List.iter
    (fun path ->
      match Cmt_format.read_cmt path with
      | exception e ->
          warnings :=
            Printf.sprintf "unreadable cmt %s: %s" path (Printexc.to_string e)
            :: !warnings
      | infos -> (
          match (infos.cmt_sourcefile, infos.cmt_annots) with
          | Some sf, _
            when (not (is_relative sf))
                 || (not (List.exists (Config.under_dir sf) dirs))
                 || Hashtbl.mem seen_sources sf ->
              ()
          | Some sf, Cmt_format.Implementation str ->
              if fresh sf infos.cmt_source_digest then begin
                Hashtbl.replace seen_sources sf ();
                loaded :=
                  {
                    Callgraph.in_modname = infos.cmt_modname;
                    in_file = sf;
                    in_structure = str;
                  }
                  :: !loaded
              end
          | Some sf, Cmt_format.Interface sg
            when fresh sf infos.cmt_source_digest ->
              Hashtbl.replace seen_sources sf ();
              interfaces :=
                {
                  Export_rule.modname = infos.cmt_modname;
                  file = sf;
                  signature = sg;
                }
                :: !interfaces
          | _ -> ()))
    cmts;
  let missing =
    List.concat_map
      (fun d ->
        if Sys.file_exists (Filename.concat root d) then
          collect_sources root d []
        else [])
      dirs
    |> List.filter (fun sf -> not (Hashtbl.mem seen_sources sf))
    |> List.sort String.compare
  in
  {
    loaded =
      List.sort
        (fun (a : Callgraph.input) b -> String.compare a.in_file b.in_file)
        !loaded;
    interfaces =
      List.sort
        (fun (a : Export_rule.interface) b -> String.compare a.file b.file)
        !interfaces;
    warnings = List.rev !warnings;
    stale = List.sort String.compare !stale;
    missing;
  }
