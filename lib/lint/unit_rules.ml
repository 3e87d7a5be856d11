(* R1–R5: the rules one unit decides alone, in one [Tast_iterator] pass
   per implementation, plus R4's attribute check over each interface.

   Callees are matched by resolved path ([Callgraph.resolve]), as R8's
   write table is: [Stdlib.compare], a name an [open] brings in and a
   module alias ([module H = Hashtbl ... H.hash]) all count, while a
   local binding that shadows a primitive's name does not.  R3 reads the
   types of [=]/[<>]'s operands. *)

(* The name of the external value [p] resolves to, "Stdlib." dropped
   ("compare", "Hashtbl.hash"); [None] for a binding of the loaded
   units or a local. *)
let stdlib_name graph ~unit_name p =
  match Callgraph.resolve graph ~unit_name p with
  | Callgraph.External _ as r -> Some (Callgraph.display_of_resolution graph r)
  | Callgraph.Node _ | Callgraph.Local _ -> None

let poly_primitive = function
  | "compare" -> Some "polymorphic compare"
  | "=" | "<>" -> Some "polymorphic equality (= / <>)"
  | "Hashtbl.hash" -> Some "Hashtbl.hash"
  | "List.mem" | "List.assoc" | "List.mem_assoc" ->
      Some "a polymorphic-equality List helper"
  | _ -> None

(* R5: a top-level right-hand side that allocates mutable state when the
   module initialises.  Function bodies are fine (state per call);
   [Atomic.make] is deliberately not flagged — it is the domain-safe
   alternative the rule pushes toward. *)
let mutable_maker = function
  | "ref" -> Some "ref cell"
  | "Hashtbl.create" | "Hashtbl.of_seq" -> Some "Hashtbl.create"
  | "Array.make" | "Array.init" | "Array.make_matrix" | "Array.create_float"
    ->
      Some "mutable array"
  | "Buffer.create" -> Some "Buffer.create"
  | "Queue.create" | "Queue.of_seq" -> Some "Queue.create"
  | "Stack.create" | "Stack.of_seq" -> Some "Stack.create"
  | "Bytes.create" | "Bytes.make" | "Bytes.init" | "Bytes.of_string" ->
      Some "mutable bytes"
  | _ -> None

let rec mutable_init stdlib (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      Option.bind (stdlib p) mutable_maker
  | Texp_array (_ :: _) -> Some "array literal"
  | Texp_let (_, _, body) | Texp_sequence (_, body) | Texp_open (_, body) ->
      mutable_init stdlib body
  | Texp_ifthenelse (_, e1, e2) -> (
      match mutable_init stdlib e1 with
      | Some _ as r -> r
      | None -> Option.bind e2 (mutable_init stdlib))
  | Texp_tuple es | Texp_construct (_, _, es) ->
      List.find_map (mutable_init stdlib) es
  | Texp_variant (_, arg) -> Option.bind arg (mutable_init stdlib)
  | Texp_record { fields; _ } ->
      Array.find_map
        (function
          | _, Typedtree.Overridden (_, e) -> mutable_init stdlib e
          | _, Typedtree.Kept _ -> None)
        fields
  | _ -> None

let is_warning_attr = function
  | "warning" | "ocaml.warning" | "warnerror" | "ocaml.warnerror" -> true
  | _ -> false

(* [ty] is [float], through abbreviations such as [Float.t]: a loaded
   cmt's environment is a summary, rebuilt from the load path
   [Cmt_load] sets. *)
let is_float env ty =
  let env = try Envaux.env_of_only_summary env with Envaux.Error _ -> env in
  match Types.get_desc (Ctype.expand_head env ty) with
  | Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

(* R4 on every attribute [it] reaches.  The default iterator hands a
   floating structure attribute to [attribute], but a node's list to
   [attributes] without unfolding it, and skips a floating signature
   attribute. *)
let attribute_checks ~emit (it : Tast_iterator.iterator) =
  let attribute _ (a : Parsetree.attribute) =
    if is_warning_attr a.attr_name.txt then
      emit ~loc:a.attr_loc Rule.R4
        (Printf.sprintf "warning suppression [@%s ...]" a.attr_name.txt)
  in
  let signature_item sub (item : Typedtree.signature_item) =
    match item.sig_desc with
    | Tsig_attribute a -> attribute sub a
    | _ -> it.signature_item sub item
  in
  {
    it with
    attribute;
    attributes = (fun sub -> List.iter (attribute sub));
    signature_item;
  }

let emitter ~file ~add_finding allowed ~loc rule msg =
  if not (allowed rule ()) then add_finding (Finding.v ~file ~loc ~rule msg)

let check_structure ~config ~graph ~unit_name ~file ~add_finding
    (str : Typedtree.structure) =
  let hot = Config.is_hot_path config file
  and floaty = Config.is_float_sensitive config file
  and spawn_ok = Config.domain_spawn_allowed config file in
  let allowed, with_allows =
    Rule.allow_stack (Callgraph.unit_allows graph unit_name)
  in
  let emit = emitter ~file ~add_finding allowed in
  let stdlib = stdlib_name graph ~unit_name in
  let check_ident ~loc p =
    match stdlib p with
    | None -> ()
    | Some name -> (
        (if hot then
           match poly_primitive name with
           | Some what -> emit ~loc Rule.R1 (what ^ " in a hot-path module")
           | None -> ());
        match name with
        | "Obj.magic" -> emit ~loc Rule.R4 "Obj.magic"
        | "Domain.spawn" when not spawn_ok ->
            emit ~loc Rule.R5
              "Domain.spawn outside the domain-owning layer (lib/par); \
               route parallelism through Midrr_par.Par"
        | _ -> ())
  in
  let check_expr (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> check_ident ~loc:e.exp_loc p
    | Texp_try (_, cases) ->
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            match (c.c_lhs.pat_desc, c.c_guard) with
            | Tpat_any, None ->
                (* the allow attribute for this case sits on its rhs *)
                with_allows (Rule.allows_of_attrs c.c_rhs.exp_attributes)
                  (fun () ->
                    emit ~loc:c.c_lhs.pat_loc Rule.R2
                      "catch-all exception handler (try ... with _ ->)")
            | _ -> ())
          cases
    | Texp_apply
        ( { exp_desc = Texp_ident (p, _, _); _ },
          [ (Nolabel, Some a); (Nolabel, Some b) ] )
      when floaty -> (
        match stdlib p with
        | Some (("=" | "<>") as op)
          when is_float a.exp_env a.exp_type || is_float b.exp_env b.exp_type
          ->
            emit ~loc:e.exp_loc Rule.R3
              (Printf.sprintf "float (%s) comparison" op)
        | _ -> ())
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    with_allows (Rule.allows_of_attrs e.exp_attributes) (fun () ->
        check_expr e;
        super.expr sub e)
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    with_allows (Rule.allows_of_attrs vb.vb_attributes) (fun () ->
        super.value_binding sub vb)
  in
  let structure_item sub (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_eval (_, attrs) ->
        with_allows (Rule.allows_of_attrs attrs) (fun () ->
            super.structure_item sub item)
    | _ -> super.structure_item sub item
  in
  let it =
    attribute_checks ~emit { super with expr; value_binding; structure_item }
  in
  it.structure it str;
  (* R5's state check walks the items evaluated at module
     initialisation only: it stops at function bodies and functors. *)
  let rec items (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.iter binding vbs
        | Tstr_module mb -> module_expr mb.mb_expr
        | Tstr_recmodule mbs ->
            List.iter
              (fun (mb : Typedtree.module_binding) -> module_expr mb.mb_expr)
              mbs
        | Tstr_include incl -> module_expr incl.incl_mod
        | _ -> ())
      str.str_items
  and module_expr (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> items str
    | Tmod_constraint (me, _, _, _) -> module_expr me
    | _ -> ()
  and binding (vb : Typedtree.value_binding) =
    with_allows
      (Rule.allows_of_attrs (vb.vb_attributes @ vb.vb_expr.exp_attributes))
      (fun () ->
        match mutable_init stdlib vb.vb_expr with
        | Some what ->
            emit ~loc:vb.vb_loc Rule.R5
              (Printf.sprintf
                 "top-level mutable state (%s) created at module init" what)
        | None -> ())
  in
  items str

let check_signature ~file ~add_finding (sg : Typedtree.signature) =
  let file_allows =
    List.concat_map
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_attribute a -> Rule.allows_of_attrs [ a ]
        | _ -> [])
      sg.sig_items
  in
  let allowed, _ = Rule.allow_stack file_allows in
  let emit = emitter ~file ~add_finding allowed in
  let it = attribute_checks ~emit Tast_iterator.default_iterator in
  it.signature it sg
