(* The baseline is a committed multiset of finding keys.  A finding whose
   key appears in the baseline (with multiplicity) is suppressed; anything
   else fails the gate.  Keys use the *text* of the offending source line,
   normalized for whitespace, rather than the line number, so unrelated
   edits above a baselined site do not invalidate the entry — the gate
   only ratchets. *)

let normalize_line s =
  let buf = Buffer.create (String.length s) in
  let pending_space = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\r' -> if Buffer.length buf > 0 then pending_space := true
      | c ->
          if !pending_space then begin
            Buffer.add_char buf ' ';
            pending_space := false
          end;
          Buffer.add_char buf c)
    s;
  Buffer.contents buf

let key ~source_line (f : Finding.t) =
  Printf.sprintf "%s\t%s\t%s" (Rule.id f.rule) f.file (normalize_line source_line)

type t = (string, int) Hashtbl.t

let empty () : t = Hashtbl.create 16

let add t k =
  Hashtbl.replace t k (1 + Option.value (Hashtbl.find_opt t k) ~default:0)

let of_keys keys =
  let t = empty () in
  List.iter (add t) keys;
  t

let is_comment line =
  let line = String.trim line in
  String.equal line "" || (String.length line > 0 && Char.equal line.[0] '#')

let load path =
  if not (Sys.file_exists path) then Ok (empty ())
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let t = empty () in
          (try
             while true do
               let line = input_line ic in
               if not (is_comment line) then add t line
             done
           with End_of_file -> ());
          Ok t)
    with Sys_error msg -> Error msg

let header =
  "# midrr-lint baseline: one pre-existing finding per line\n\
   # (rule-id <TAB> file <TAB> whitespace-normalized source line).\n\
   # The gate is ratchet-only: delete entries as sites are fixed; never\n\
   # add one without a review discussion.  Regenerate with\n\
   #   dune exec bin/midrr_lint_cli.exe -- --update-baseline\n"

let save path ~keys =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      List.iter
        (fun k ->
          output_string oc k;
          output_char oc '\n')
        (List.sort String.compare keys))

(* Splits findings into (fresh, baselined-count, stale-keys).  Multiset
   semantics: n baseline copies of a key absorb at most n findings. *)
let apply t findings_with_keys =
  let remaining = Hashtbl.copy t in
  let fresh =
    List.filter
      (fun (_, k) ->
        match Hashtbl.find_opt remaining k with
        | Some n when n > 0 ->
            Hashtbl.replace remaining k (n - 1);
            false
        | _ -> true)
      findings_with_keys
  in
  let stale =
    Hashtbl.fold
      (fun k n acc -> if n > 0 then (k, n) :: acc else acc)
      remaining []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let baselined =
    List.length findings_with_keys - List.length fresh
  in
  (List.map fst fresh, baselined, stale)
