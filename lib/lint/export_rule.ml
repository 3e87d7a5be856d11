(* R9: no export without a caller.

   Every explicit top-level [val] of a lib/ interface must be
   referenced by another loaded unit.  The callers are whatever the
   driver loaded (lib/, bin/, bench/ and examples/ from the CLI; never
   test/).  A reference is any identifier in any expression of a unit,
   module initialisers included, resolved through the call graph and
   matched by its resolved name, [Node] or [External]: values an
   [include] of a functor application brings in have no binding node,
   so a node match would read them as dead.  Only identifiers count: a
   val used solely through a first-class module or through another
   unit's [include] reads as dead, and says so. *)

let rule = Rule.R9

type interface = {
  modname : string;
  file : string;
  signature : Typedtree.signature;
}

let own ~unit_name key =
  String.starts_with ~prefix:(unit_name ^ ".") key

let name_of = function
  | Callgraph.Node k | Callgraph.External k -> Some k
  | Callgraph.Local _ -> None

let rec module_path (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> module_path me
  | Tmod_ident (p, _) -> Some p
  | _ -> None

(* Every resolved name another unit references. *)
let references graph units =
  let refs = Hashtbl.create 1024 in
  List.iter
    (fun { Callgraph.in_modname = unit_name; in_structure = str; _ } ->
      let mark key =
        if not (own ~unit_name key) then Hashtbl.replace refs key ()
      in
      (* [let module R = Midrr_lint.Rule in R.all] *)
      let local_modules = Hashtbl.create 4 in
      let resolve p =
        let head, comps = Callgraph.path_components p [] in
        match Hashtbl.find_opt local_modules (Ident.unique_name head) with
        | Some m -> Some (String.concat "." (m :: comps))
        | None -> name_of (Callgraph.resolve graph ~unit_name p)
      in
      let super = Tast_iterator.default_iterator in
      let expr sub (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> Option.iter mark (resolve p)
        | Texp_letmodule (Some id, _, _, me, _) ->
            Option.iter
              (Hashtbl.replace local_modules (Ident.unique_name id))
              (Option.bind (module_path me) resolve)
        | _ -> ());
        super.expr sub e
      in
      let it = { super with expr } in
      it.structure it str)
    units;
  refs

(* R9 judges the library surface; executables' interfaces export to
   no other unit. *)
let judged i = String.starts_with ~prefix:"lib/" i.file

let check ~graph ~units ~interfaces ~add_finding =
  let refs = references graph units in
  List.iter
    (fun i ->
      List.iter
        (fun (item : Typedtree.signature_item) ->
          match item.sig_desc with
          | Tsig_value vd ->
              let name = vd.val_name.txt in
              let allowed =
                List.exists (Rule.equal rule)
                  (Rule.allows_of_attrs vd.val_attributes)
              in
              if not (allowed || Hashtbl.mem refs (i.modname ^ "." ^ name))
              then
                add_finding
                  (Finding.v ~file:i.file ~loc:vd.val_loc ~rule
                     (Printf.sprintf
                        "[%s.%s] is exported but no other unit of the \
                         programs references it"
                        (Callgraph.unit_display i.modname)
                        name))
          | _ -> ())
        i.signature.sig_items)
    (List.filter judged interfaces)
