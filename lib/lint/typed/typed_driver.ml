open Midrr_lint

(* Discovery driver for the typed tier: load cmts from the build
   directory, run the analyses, and hand back findings keyed for the
   shared baseline.  The CLI merges these with the untyped tier's
   findings under one [Baseline.apply]. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Baseline keys need the source line under the finding; cache the line
   arrays per file. *)
let keyer ~root =
  let cache = Hashtbl.create 16 in
  fun (f : Finding.t) ->
    let lines =
      match Hashtbl.find_opt cache f.file with
      | Some lines -> lines
      | None ->
          let lines =
            match read_file (Filename.concat root f.file) with
            | source ->
                String.split_on_char '\n' source |> Array.of_list
            | exception Sys_error _ -> [||]
          in
          Hashtbl.replace cache f.file lines;
          lines
    in
    let line =
      if f.line >= 1 && f.line <= Array.length lines then lines.(f.line - 1)
      else ""
    in
    Baseline.key ~source_line:line f

let collect_keys ?(config = Config.default) ~root ~build_dir ~dirs () =
  let r = Cmt_load.load ~root ~build_dir ~dirs () in
  let inputs =
    List.map
      (fun (l : Cmt_load.loaded) ->
        {
          Typed_engine.ui_modname = l.l_modname;
          ui_file = l.l_file;
          ui_structure = l.l_structure;
        })
      r.loaded
  in
  let interfaces =
    List.map
      (fun (i : Cmt_load.interface) ->
        {
          Export_rule.modname = i.i_modname;
          file = i.i_file;
          signature = i.i_signature;
        })
      r.interfaces
  in
  let findings, analysis_warnings =
    Typed_engine.analyze ~config ~interfaces inputs
  in
  let key = keyer ~root in
  let with_keys = List.map (fun f -> (f, key f)) findings in
  let missing_warnings =
    List.map
      (fun sf ->
        Printf.sprintf
          "no .cmt artifact for %s under %s — run [dune build] so the typed \
           tier can see it"
          sf build_dir)
      r.missing
  in
  ( List.length inputs,
    with_keys,
    r.warnings @ missing_warnings @ analysis_warnings,
    List.sort String.compare (r.missing @ r.stale) )

let all_keys ?(config = Config.default) ~root ~build_dir ~dirs () =
  let _, with_keys, _, _ = collect_keys ~config ~root ~build_dir ~dirs () in
  List.map snd with_keys
