(* In-process typechecking of fixture sources, so the lint tests can
   run without producing cmt artifacts on disk.  Uses the same
   compiler-libs the build itself uses; the environment is the initial
   Stdlib environment, so fixtures must be self-contained (they declare
   their own local [Par] module, say, rather than depending on
   [Midrr_par]), or reference earlier fixture units passed as [units]. *)

let init = lazy (Compmisc.init_path ())
let ensure_init () = Lazy.force init

let report_error e =
  match Location.error_of_exn e with
  | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
  | _ -> Printexc.to_string e

(* The initial environment, plus earlier fixture units by module name
   and signature, so that a fixture may reference another one. *)
let env_with units =
  List.fold_left
    (fun env (name, sg) ->
      Env.add_module (Ident.create_persistent name) Types.Mp_present
        (Types.Mty_signature sg) env)
    (Compmisc.initial_env ()) units

let structure ?(filename = "fixture.ml") ?(units = []) source =
  ensure_init ();
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf filename;
  match
    let pstr = Parse.implementation lexbuf in
    let tstr, _, _, _, _ = Typemod.type_structure (env_with units) pstr in
    tstr
  with
  | tstr -> Ok tstr
  | exception e -> Error (report_error e)

let signature ?(filename = "fixture.mli") source =
  ensure_init ();
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf filename;
  match Typemod.transl_signature (env_with []) (Parse.interface lexbuf) with
  | tsig -> Ok tsig
  | exception e -> Error (report_error e)
