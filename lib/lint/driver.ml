type report = {
  units : int;
  findings : Finding.t list;
  baselined : int;
  stale_baseline : (string * int) list;
  blocked : string list;
  warnings : string list;
}

let clean r =
  (match r.findings with [] -> true | _ -> false)
  && match r.blocked with [] -> true | _ -> false

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
            | source -> String.split_on_char '\n' source |> Array.of_list
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
  let findings, analysis_warnings =
    Typed_engine.analyze ~config ~interfaces:r.interfaces r.loaded
  in
  let key = keyer ~root in
  let missing_warnings =
    List.map
      (fun sf ->
        Printf.sprintf
          "no .cmt artifact for %s under %s — run [dune build] so the lint \
           can see it"
          sf build_dir)
      r.missing
  in
  ( List.length r.loaded,
    List.map (fun f -> (f, key f)) findings,
    r.warnings @ missing_warnings @ analysis_warnings,
    List.sort String.compare (r.missing @ r.stale) )

let all_keys ?config ~root ~build_dir ~dirs () =
  let _, with_keys, _, _ = collect_keys ?config ~root ~build_dir ~dirs () in
  List.map snd with_keys

let scan ?config ~root ~build_dir ~dirs ~baseline () =
  let units, with_keys, warnings, blocked =
    collect_keys ?config ~root ~build_dir ~dirs ()
  in
  let findings, baselined, stale_baseline = Baseline.apply baseline with_keys in
  { units; findings; baselined; stale_baseline; blocked; warnings }

let pp_report ppf r =
  List.iter (fun f -> Format.fprintf ppf "@[<v>%a@]@." Finding.pp f) r.findings;
  List.iter (fun w -> Format.fprintf ppf "warning: %s@." w) r.warnings;
  List.iter
    (fun (k, n) ->
      Format.fprintf ppf
        "stale baseline entry (%d unmatched): %s@.  (delete it: the site \
         was fixed)@."
        n
        (String.concat " | " (String.split_on_char '\t' k)))
    r.stale_baseline;
  Format.fprintf ppf
    "midrr-lint: %d unit(s) loaded, %d fresh finding(s), %d baselined, %d \
     stale baseline entr(ies), %d source(s) without a fresh artifact@."
    r.units
    (List.length r.findings)
    r.baselined
    (List.length r.stale_baseline)
    (List.length r.blocked)

let json_list buf items to_json =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    ";
      Buffer.add_string buf (to_json x))
    items

let json_string s = Printf.sprintf "\"%s\"" (Finding.json_escape s)

let report_to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"units\": ";
  Buffer.add_string buf (Int.to_string r.units);
  Buffer.add_string buf ",\n  \"baselined\": ";
  Buffer.add_string buf (Int.to_string r.baselined);
  Buffer.add_string buf ",\n  \"findings\": [";
  json_list buf r.findings Finding.to_json;
  Buffer.add_string buf "\n  ],\n  \"stale_baseline\": [";
  json_list buf r.stale_baseline (fun (k, n) ->
      Printf.sprintf "{\"key\":%s,\"count\":%d}" (json_string k) n);
  Buffer.add_string buf "\n  ],\n  \"blocked\": [";
  json_list buf r.blocked json_string;
  Buffer.add_string buf "\n  ],\n  \"warnings\": [";
  json_list buf r.warnings json_string;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
