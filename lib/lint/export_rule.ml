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

(* Every resolved name another unit references. *)
let references graph units =
  let refs = Hashtbl.create 1024 in
  List.iter
    (fun { Callgraph.in_modname = unit_name; in_structure = str; _ } ->
      let mark key =
        if not (own ~unit_name key) then Hashtbl.replace refs key ()
      in
      let super = Tast_iterator.default_iterator in
      let expr sub (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> (
            match Callgraph.resolve graph ~unit_name p with
            | Node key | External key -> mark key
            | Local _ -> ())
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
