(* R7: static zero-allocation proof over the typed tree.

   Every function transitively reachable from a configured entry point
   must be free of allocating constructs.  The classifier flags what the
   OCaml compiler allocates on the minor heap:

   - closure creation (any [Texp_function] past the binding's own
     leading lambda chain);
   - tuples, except when a tuple is the immediate scrutinee of a
     [match] (the compiler deconstructs those in place);
   - non-constant constructor applications with a block representation
     ([Some x], [x :: tl], ...; [@unboxed] constructors are exempt);
   - polymorphic variants with a payload, records (including [{r with}]
     copies), non-empty array literals, [lazy], objects, first-class
     modules, let-operators;
   - partial applications, detected by the application's *result type*
     still being an arrow (this stays quiet when optional arguments are
     merely omitted at a total call);
   - calls to a curated list of allocating stdlib externals (the list is
     deny-based: an unknown external stays quiet, which is the
     documented imprecision — the runtime gate in @crosscheck catches
     what it misses on the decision path);
   - boxed-float results: a reachable function whose return type is
     [float] boxes on every call, unless its body reads the float from a
     field of a record that stores it boxed: that returns the existing
     box.

   Exemptions: subtrees that only run on the raise path
   ([raise]/[failwith]/[invalid_arg]/[assert]) are cold by definition;
   non-function value bindings are evaluated once at module init and
   skipped. *)

let rule = Rule.R7

(* ---- allocating externals -------------------------------------------- *)

(* Names are matched after stripping a "Stdlib." prefix. *)
let allocating_externals =
  [
    "ref"; "^"; "@"; "string_of_int"; "string_of_float"; "string_of_bool";
    "float_of_string"; "float_of_string_opt"; "int_of_string_opt";
    "input_line"; "read_line";
    (* Array / Bytes / String builders *)
    "Array.make"; "Array.create_float"; "Array.init"; "Array.make_matrix";
    "Array.append"; "Array.concat"; "Array.sub"; "Array.copy";
    "Array.of_list"; "Array.to_list"; "Array.of_seq"; "Array.to_seq";
    "Array.map"; "Array.mapi"; "Array.split"; "Array.combine";
    "Float.Array.create"; "Float.Array.make"; "Float.Array.init";
    "Float.Array.append"; "Float.Array.concat"; "Float.Array.sub";
    "Float.Array.copy"; "Float.Array.of_list"; "Float.Array.to_list";
    "Float.Array.map"; "Float.Array.mapi";
    "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.cat"; "String.map"; "String.mapi"; "String.trim";
    "String.escaped"; "String.uppercase_ascii"; "String.lowercase_ascii";
    "String.capitalize_ascii"; "String.split_on_char"; "String.to_bytes";
    "String.of_bytes"; "String.to_seq"; "String.of_seq";
    "Bytes.create"; "Bytes.make"; "Bytes.init"; "Bytes.copy";
    "Bytes.of_string"; "Bytes.to_string"; "Bytes.sub"; "Bytes.sub_string";
    "Bytes.extend"; "Bytes.cat"; "Bytes.concat";
    (* List builders *)
    "List.map"; "List.mapi"; "List.map2"; "List.rev"; "List.rev_map";
    "List.rev_map2"; "List.rev_append"; "List.append"; "List.concat";
    "List.concat_map"; "List.flatten"; "List.init"; "List.cons";
    "List.filter"; "List.filteri"; "List.filter_map"; "List.partition";
    "List.split"; "List.combine"; "List.sort"; "List.stable_sort";
    "List.fast_sort"; "List.sort_uniq"; "List.merge"; "List.of_seq";
    "List.to_seq"; "List.find_opt"; "List.find_map"; "List.assoc_opt";
    "List.assq_opt"; "List.nth_opt";
    (* Buffer: [add_*] may grow the internal bytes *)
    "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes"; "Buffer.sub";
    "Buffer.add_string"; "Buffer.add_bytes"; "Buffer.add_buffer";
    "Buffer.add_char"; "Buffer.add_substitute"; "Buffer.add_subbytes";
    "Buffer.add_substring";
    (* Hashtbl: [replace] of an existing key is in-place steady-state, so
       it is deliberately absent; [add] conses a bucket every call *)
    "Hashtbl.create"; "Hashtbl.add"; "Hashtbl.copy"; "Hashtbl.of_seq";
    "Hashtbl.to_seq"; "Hashtbl.to_seq_keys"; "Hashtbl.to_seq_values";
    "Hashtbl.find_opt"; "Hashtbl.find_all"; "Hashtbl.fold";
    (* Queue / Stack cells *)
    "Queue.create"; "Queue.push"; "Queue.add"; "Queue.copy";
    "Queue.of_seq"; "Queue.to_seq"; "Queue.peek_opt"; "Queue.take_opt";
    "Stack.create"; "Stack.push"; "Stack.of_seq"; "Stack.to_seq";
    "Stack.pop_opt"; "Stack.top_opt";
    (* Option / Result wrappers *)
    "Option.some"; "Option.map"; "Option.bind"; "Option.to_list";
    "Option.to_seq";
    "Result.ok"; "Result.error"; "Result.map"; "Result.bind";
    "Result.map_error";
    "Either.left"; "Either.right";
    (* misc *)
    "Atomic.make"; "Domain.spawn"; "Lazy.from_fun"; "Lazy.from_val";
    "Float.to_string"; "Float.of_string"; "Float.of_string_opt";
    "Sys.time"; "Unix.gettimeofday";
  ]

(* Whole allocating module families; every call under one of these
   prefixes is flagged unless the final component is in the safe set. *)
let allocating_prefixes =
  [ "Printf."; "Format."; "Scanf."; "Seq."; "Gc."; "Int64."; "Int32.";
    "Nativeint."; "Set."; "Map."; "Random."; "Digest."; "Marshal.";
    "Filename."; "In_channel."; "Out_channel." ]

let prefix_safe_finals =
  [ "mem"; "is_empty"; "cardinal"; "length"; "subset"; "equal"; "compare";
    "for_all"; "exists"; "iter"; "fold"; "to_int"; "compact" ]

let raising_externals =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let strip_stdlib name =
  if has_prefix ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

let final_component name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let external_allocates name =
  let name = strip_stdlib name in
  List.exists (String.equal name) allocating_externals
  || List.exists
       (fun prefix ->
         has_prefix ~prefix name
         && not
              (List.exists (String.equal (final_component name))
                 prefix_safe_finals))
       allocating_prefixes

let external_raises name =
  let name = strip_stdlib name in
  List.exists (String.equal name) raising_externals

(* ---- type helpers ---------------------------------------------------- *)

let rec peel_arrows ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, ret, _) -> peel_arrows ret
  | _ -> ty

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* A field read returns the box a record already holds, except from a
   float record, whose fields are unboxed. *)
let reads_stored_box (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> (
      match lbl.lbl_repres with Types.Record_float -> false | _ -> true)
  | _ -> false

(* ---- the walker ------------------------------------------------------ *)

type ctx = {
  cfg : Config.t;
  graph : Callgraph.t;
  node : Callgraph.node;
  emit : loc:Location.t -> string -> unit;
  allowed : unit -> bool;  (* R7 in scope of an allow attribute? *)
  with_allows : Rule.t list -> (unit -> unit) -> unit;
}

let flag ctx ~loc msg = if not (ctx.allowed ()) then ctx.emit ~loc msg

(* Application head resolved to a dotted display name, when the head is
   a plain identifier. *)
let head_name ctx (f : Typedtree.expression) =
  match f.exp_desc with
  | Texp_ident (p, _, _) ->
      Some
        (Callgraph.display_of_resolution ctx.graph
           (Callgraph.resolve ctx.graph ~unit_name:ctx.node.Callgraph.n_unit p))
  | _ -> None

let rec walk_expr ctx (e : Typedtree.expression) =
  let allows = Rule.allows_of_attrs e.exp_attributes in
  ctx.with_allows allows (fun () -> walk_expr_inner ctx e)

and walk_case : type k. ctx -> k Typedtree.case -> unit =
 fun ctx c ->
  Option.iter (walk_expr ctx) c.c_guard;
  walk_expr ctx c.c_rhs

and walk_expr_inner ctx (e : Typedtree.expression) =
  let loc = e.exp_loc in
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      flag ctx ~loc "closure creation on the hot path";
      List.iter (walk_case ctx) cases
  | Texp_tuple es ->
      flag ctx ~loc
        (Printf.sprintf "%d-tuple allocation" (List.length es));
      List.iter (walk_expr ctx) es
  | Texp_match (scrut, cases, _) ->
      (* a tuple built only to be matched is deconstructed in place *)
      (match scrut.exp_desc with
      | Texp_tuple es -> List.iter (walk_expr ctx) es
      | _ -> walk_expr ctx scrut);
      List.iter (walk_case ctx) cases
  | Texp_construct (_, cd, args) -> (
      match (cd.cstr_tag, args) with
      | _, [] -> ()
      | Types.Cstr_unboxed, args -> List.iter (walk_expr ctx) args
      | (Types.Cstr_block _ | Types.Cstr_extension _ | Types.Cstr_constant _),
        args ->
          flag ctx ~loc
            (Printf.sprintf "allocating constructor application [%s]"
               cd.cstr_name);
          List.iter (walk_expr ctx) args)
  | Texp_variant (_, Some arg) ->
      flag ctx ~loc "polymorphic-variant allocation";
      walk_expr ctx arg
  | Texp_variant (_, None) -> ()
  | Texp_record { fields; extended_expression; _ } ->
      flag ctx ~loc "record allocation";
      Option.iter (walk_expr ctx) extended_expression;
      Array.iter
        (fun (_, def) ->
          match def with
          | Typedtree.Overridden (_, e) -> walk_expr ctx e
          | Typedtree.Kept _ -> ())
        fields
  | Texp_array [] -> ()
  | Texp_array es ->
      flag ctx ~loc "array-literal allocation";
      List.iter (walk_expr ctx) es
  | Texp_lazy e' ->
      flag ctx ~loc "lazy-block allocation";
      walk_expr ctx e'
  | Texp_letop { let_; ands; body; _ } ->
      flag ctx ~loc "let-operator allocates its continuation closure";
      walk_expr ctx let_.bop_exp;
      List.iter (fun (a : Typedtree.binding_op) -> walk_expr ctx a.bop_exp)
        ands;
      walk_case ctx body
  | Texp_object _ | Texp_new _ ->
      flag ctx ~loc "object allocation"
  | Texp_pack me ->
      flag ctx ~loc "first-class-module allocation";
      walk_module ctx me
  | Texp_apply (f, args) -> walk_apply ctx e f args
  | Texp_assert _ -> ()  (* assertion failure path is cold *)
  | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_unreachable
  | Texp_extension_constructor _ ->
      ()
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          ctx.with_allows
            (Rule.allows_of_attrs vb.vb_attributes)
            (fun () -> walk_expr ctx vb.vb_expr))
        vbs;
      walk_expr ctx body
  | Texp_try (e', cases) ->
      walk_expr ctx e';
      (* handlers only run on the raise path: cold *)
      ignore cases
  | Texp_ifthenelse (c, t, f) ->
      walk_expr ctx c;
      walk_expr ctx t;
      Option.iter (walk_expr ctx) f
  | Texp_sequence (a, b) ->
      walk_expr ctx a;
      walk_expr ctx b
  | Texp_while (c, body) ->
      walk_expr ctx c;
      walk_expr ctx body
  | Texp_for (_, _, lo, hi, _, body) ->
      walk_expr ctx lo;
      walk_expr ctx hi;
      walk_expr ctx body
  | Texp_field (e', _, _) -> walk_expr ctx e'
  | Texp_setfield (a, _, _, b) ->
      walk_expr ctx a;
      walk_expr ctx b
  | Texp_setinstvar (_, _, _, e') | Texp_send (e', _) -> walk_expr ctx e'
  | Texp_letmodule (_, _, _, me, body) ->
      walk_module ctx me;
      walk_expr ctx body
  | Texp_letexception (_, body) -> walk_expr ctx body
  | Texp_open (_, body) -> walk_expr ctx body
  | Texp_override (_, fields) ->
      flag ctx ~loc "object override allocation";
      List.iter (fun (_, _, e') -> walk_expr ctx e') fields

and walk_module ctx (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str ->
      List.iter
        (fun (item : Typedtree.structure_item) ->
          match item.str_desc with
          | Tstr_value (_, vbs) ->
              List.iter
                (fun (vb : Typedtree.value_binding) -> walk_expr ctx vb.vb_expr)
                vbs
          | Tstr_eval (e, _) -> walk_expr ctx e
          | _ -> ())
        str.str_items
  | _ -> ()

and walk_apply ctx e f args =
  let loc = e.exp_loc in
  let name = head_name ctx f in
  (* raise-shaped calls introduce a cold subtree: skip it entirely *)
  match name with
  | Some n when external_raises n -> ()
  | _ ->
      (match name with
      | Some n when external_allocates n ->
          flag ctx ~loc
            (Printf.sprintf "call to allocating primitive [%s]"
               (strip_stdlib n))
      | _ -> ());
      (* partial application: the result is still a function, so the
         compiler builds a closure over the supplied arguments *)
      if is_arrow e.exp_type then
        flag ctx ~loc "partial application allocates a closure";
      (match f.exp_desc with
      | Texp_ident _ -> ()
      | _ -> walk_expr ctx f);
      List.iter
        (fun (_, arg) -> Option.iter (walk_expr ctx) arg)
        args

(* The body under a binding's leading lambda chain: the binding's
   closure is built once at module init, not per call. *)
let rec lambda_body (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when Option.is_none c.c_guard ->
      lambda_body c.c_rhs
  | _ -> e

let walk_body ctx e =
  let body = lambda_body e in
  match body.exp_desc with
  | Texp_function { cases; _ } -> List.iter (walk_case ctx) cases
  | _ -> walk_expr ctx body

let check_node ~cfg ~graph ~emit ~with_allows ~allowed (node : Callgraph.node) =
  let ctx = { cfg; graph; node; emit; allowed; with_allows } in
  if node.Callgraph.n_is_function then begin
    let ret = peel_arrows node.Callgraph.n_expr.exp_type in
    if
      Unit_rules.is_float node.Callgraph.n_expr.exp_env ret
      && (not (reads_stored_box (lambda_body node.Callgraph.n_expr)))
      && not (allowed ())
    then
      emit ~loc:node.Callgraph.n_loc
        (Printf.sprintf
           "[%s] returns a boxed float: every call allocates the box"
           node.Callgraph.n_display);
    walk_body ctx node.Callgraph.n_expr
  end
