(* R8: interprocedural domain-safety, by resolved path and reachability
   over the call graph:

   1. Every application of a configured par entry point is a task site.
      Task arguments are either closure literals or identifiers naming
      top-level functions.
   2. Inside a task closure, a write whose target root is neither bound
      within the closure nor the task's own argument is flagged
      (captured or module-level mutable state).
   3. A captured value passed to a callee that writes the corresponding
      parameter — directly or transitively, via a fixpoint over
      per-function summaries — is flagged too: the mutation is hidden
      one call deep.
   4. Every function reachable from a task root is scanned for direct
      writes to module-level mutable state.

   Sanctioned synchronization is exempt: [Atomic.*] operations, and any
   function living under [domain_spawn_dirs] (the executor layer owns
   its own merge discipline).  A task writing through its *own*
   parameter follows the per-element ownership convention the executor
   documents, and is not flagged. *)

let rule = Rule.R8

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let strip_stdlib name =
  if has_prefix ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

(* ---- write classification -------------------------------------------- *)

(* [write_of_apply name args] returns [Some (target, what)] when a call
   to external [name] mutates [target]. *)
let write_of_apply name (args : (_ * Typedtree.expression option) list) =
  let name = strip_stdlib name in
  let nth i =
    match List.filteri (fun j _ -> j = i) args with
    | [ (_, Some e) ] -> Some e
    | _ -> None
  in
  let target i what = Option.map (fun e -> (e, what)) (nth i) in
  match name with
  | ":=" -> target 0 "a ref"
  | "incr" | "decr" -> target 0 "a ref"
  | "Array.set" | "Array.unsafe_set" | "Array.fill" ->
      target 0 "an array cell"
  | "Array.blit" -> target 2 "an array"
  | "Float.Array.set" | "Float.Array.unsafe_set" | "Float.Array.fill" ->
      target 0 "a float array cell"
  | "Bytes.set" | "Bytes.unsafe_set" | "Bytes.fill" -> target 0 "bytes"
  | "Bytes.blit" | "Bytes.blit_string" | "String.blit" -> target 2 "bytes"
  | "Hashtbl.replace" | "Hashtbl.add" | "Hashtbl.remove" | "Hashtbl.reset"
  | "Hashtbl.clear" | "Hashtbl.filter_map_inplace" ->
      target 0 "a hash table"
  | "Buffer.add_string" | "Buffer.add_char" | "Buffer.add_bytes"
  | "Buffer.add_buffer" | "Buffer.add_substring" | "Buffer.add_subbytes"
  | "Buffer.clear" | "Buffer.reset" | "Buffer.truncate" ->
      target 0 "a buffer"
  | "Queue.add" | "Queue.push" -> target 1 "a queue"
  | "Queue.pop" | "Queue.take" | "Queue.clear" | "Queue.transfer" ->
      target 0 "a queue"
  | "Stack.push" -> target 1 "a stack"
  | "Stack.pop" | "Stack.clear" -> target 0 "a stack"
  | "Array.sort" | "Array.stable_sort" | "Array.fast_sort" ->
      target 1 "an array"
  | _ -> None

(* Root identifier of a write target: peel field projections and
   container reads ([a.(i).field <- v] roots at [a]). *)
let rec target_root graph ~unit_name (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (p, Callgraph.resolve graph ~unit_name p)
  | Texp_field (e', _, _) -> target_root graph ~unit_name e'
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
      let name =
        strip_stdlib
          (Callgraph.display_of_resolution graph
             (Callgraph.resolve graph ~unit_name p))
      in
      match name with
      | "Array.get" | "Array.unsafe_get" | "Bytes.get" | "Bytes.unsafe_get"
      | "Float.Array.get" | "Float.Array.unsafe_get" | "!" -> (
          match args with
          | (_, Some e') :: _ -> target_root graph ~unit_name e'
          | _ -> None)
      | _ -> None)
  | _ -> None

type root_class =
  | Param of int  (* index into the enclosing node's param groups *)
  | Task_local  (* bound inside the scanned scope *)
  | Captured of string  (* free local ident: captured from outside *)
  | Global of string  (* resolves to a top-level value *)
  | Opaque  (* complex target we cannot root: documented imprecision *)

let classify_root ~bound ~params (p, resolution) =
  match resolution with
  | Callgraph.Node key -> Global key
  | Callgraph.External name -> Global name
  | Callgraph.Local id -> (
      let stamp = Ident.unique_name id in
      let rec param_index i = function
        | [] -> None
        | group :: rest ->
            if List.exists (fun g -> String.equal (Ident.unique_name g) stamp) group
            then Some i
            else param_index (i + 1) rest
      in
      ignore p;
      match param_index 0 params with
      | Some i -> Param i
      | None ->
          if Hashtbl.mem bound stamp then Task_local
          else Captured (Ident.name id))

(* All idents bound anywhere in [e]: let/match/function patterns, for
   indices, let-op params.  Unique stamps make scope tracking
   unnecessary — an ident missing from this set was bound outside. *)
let bound_idents (e : Typedtree.expression) =
  let bound = Hashtbl.create 32 in
  let add id = Hashtbl.replace bound (Ident.unique_name id) () in
  let super = Tast_iterator.default_iterator in
  let pat : type k. _ -> k Typedtree.general_pattern -> unit =
   fun sub p ->
    List.iter add (Typedtree.pat_bound_idents p);
    super.pat sub p
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_for (id, _, _, _, _, _) -> add id
    | Texp_function { param; _ } -> add param
    | Texp_letop { param; _ } -> add param
    | _ -> ());
    super.expr sub e
  in
  let it = { super with pat; expr } in
  it.expr it e;
  bound

(* ---- per-function summaries ------------------------------------------ *)

type summary = { mutable s_writes_params : bool array }

(* Map positional value arguments of an application onto callee param
   group indices.  Labels are ignored (positional approximation —
   adequate for the unlabeled hot-path style this repo enforces). *)
let positional_args args =
  List.filter_map
    (fun (label, arg) ->
      match (label, arg) with
      | Asttypes.Optional _, _ -> None
      | _, Some e -> Some e
      | _, None -> None)
    args

let summaries graph =
  let tbl : (string, summary) Hashtbl.t = Hashtbl.create 128 in
  let calls : (string, (string * (int * int) list) list) Hashtbl.t =
    Hashtbl.create 128
  in
  (* direct pass: which params does each node write; which params does
     it pass to which callee positions *)
  Callgraph.iter_nodes graph (fun node ->
      let params = node.Callgraph.n_params in
      let s =
        { s_writes_params = Array.make (List.length params) false }
      in
      Hashtbl.replace tbl node.Callgraph.n_key s;
      let node_calls = ref [] in
      let unit_name = node.Callgraph.n_unit in
      let empty_bound = Hashtbl.create 1 in
      let record_write target =
        match target_root graph ~unit_name target with
        | Some root -> (
            match classify_root ~bound:empty_bound ~params root with
            | Param i -> s.s_writes_params.(i) <- true
            | Task_local | Captured _ | Global _ | Opaque -> ())
        | None -> ()
      in
      let super = Tast_iterator.default_iterator in
      let expr sub (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_setfield (target, _, _, _) -> record_write target
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            let resolution = Callgraph.resolve graph ~unit_name p in
            (match resolution with
            | Callgraph.Node callee ->
                let argmap =
                  positional_args args
                  |> List.mapi (fun arg_i (arg : Typedtree.expression) ->
                         match target_root graph ~unit_name arg with
                         | Some root -> (
                             match
                               classify_root ~bound:empty_bound ~params root
                             with
                             | Param i -> Some (arg_i, i)
                             | _ -> None)
                         | None -> None)
                  |> List.filter_map Fun.id
                in
                (match argmap with
                | [] -> ()
                | _ -> node_calls := (callee, argmap) :: !node_calls)
            | Callgraph.External name -> (
                match write_of_apply name args with
                | Some (target, _) -> record_write target
                | None -> ())
            | Callgraph.Local _ -> ()))
        | _ -> ());
        super.expr sub e
      in
      let it = { super with expr } in
      it.expr it node.Callgraph.n_expr;
      Hashtbl.replace calls node.Callgraph.n_key !node_calls);
  (* fixpoint: propagate written-param bits through calls *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun key node_calls ->
        match Hashtbl.find_opt tbl key with
        | None -> ()
        | Some s ->
            List.iter
              (fun (callee, argmap) ->
                match Hashtbl.find_opt tbl callee with
                | None -> ()
                | Some cs ->
                    List.iter
                      (fun (arg_i, param_i) ->
                        if
                          arg_i < Array.length cs.s_writes_params
                          && cs.s_writes_params.(arg_i)
                          && param_i < Array.length s.s_writes_params
                          && not s.s_writes_params.(param_i)
                        then begin
                          s.s_writes_params.(param_i) <- true;
                          changed := true
                        end)
                      argmap)
              node_calls)
      calls
  done;
  tbl

(* ---- task-site discovery and scanning -------------------------------- *)

type emit = loc:Location.t -> string -> unit

let atomic_call name = has_prefix ~prefix:"Atomic." (strip_stdlib name)

(* Scan a task argument subtree: flag captured/global writes at lambda
   depth > 0 (code outside any closure literal runs serially at the call
   site), and captured values flowing into written parameters. *)
let scan_task_arg ~graph ~summaries:sums ~unit_name ~emit ~allowed
    ~with_allows (arg : Typedtree.expression) =
  let bound = bound_idents arg in
  let params = [] in
  let flag ~loc msg = if not (allowed ()) then emit ~loc msg in
  let check_write ~loc target what =
    match target_root graph ~unit_name target with
    | None -> ()
    | Some root -> (
        match classify_root ~bound ~params root with
        | Captured name ->
            flag ~loc
              (Printf.sprintf
                 "Par task writes %s captured from outside the task [%s]"
                 what name)
        | Global key ->
            let display =
              match Callgraph.find_node graph key with
              | Some n -> n.Callgraph.n_display
              | None -> strip_stdlib key
            in
            flag ~loc
              (Printf.sprintf
                 "Par task writes %s in module-level state [%s]" what display)
        | Param _ | Task_local | Opaque -> ())
  in
  let check_call ~loc resolution args =
    match resolution with
    | Callgraph.External name when atomic_call name -> ()
    | Callgraph.External name -> (
        match write_of_apply name args with
        | Some (target, what) -> check_write ~loc target what
        | None -> ())
    | Callgraph.Node callee -> (
        match Hashtbl.find_opt sums callee with
        | None -> ()
        | Some s ->
            List.iteri
              (fun arg_i (arg : Typedtree.expression) ->
                if
                  arg_i < Array.length s.s_writes_params
                  && s.s_writes_params.(arg_i)
                then
                  match target_root graph ~unit_name arg with
                  | None -> ()
                  | Some root -> (
                      match classify_root ~bound ~params root with
                      | Captured name ->
                          let callee_display =
                            match Callgraph.find_node graph callee with
                            | Some n -> n.Callgraph.n_display
                            | None -> callee
                          in
                          flag ~loc
                            (Printf.sprintf
                               "Par task passes captured value [%s] to \
                                [%s], which writes that argument \
                                (possibly transitively)"
                               name callee_display)
                      | Param _ | Task_local | Global _ | Opaque -> ()))
              (positional_args args))
    | Callgraph.Local _ -> ()
  in
  let rec walk ~depth (e : Typedtree.expression) =
    let allows = Rule.allows_of_attrs e.exp_attributes in
    with_allows allows (fun () -> walk_inner ~depth e)
  and walk_case : type k. depth:int -> k Typedtree.case -> unit =
   fun ~depth c ->
    Option.iter (walk ~depth) c.c_guard;
    walk ~depth c.c_rhs
  and walk_inner ~depth (e : Typedtree.expression) =
    let loc = e.exp_loc in
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter (walk_case ~depth:(depth + 1)) cases
    | Texp_setfield (target, _, _, rhs) ->
        if depth > 0 then check_write ~loc target "a mutable field";
        walk ~depth target;
        walk ~depth rhs
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        if depth > 0 then
          check_call ~loc (Callgraph.resolve graph ~unit_name p) args;
        List.iter (fun (_, a) -> Option.iter (walk ~depth) a) args
    | Texp_apply (f, args) ->
        walk ~depth f;
        List.iter (fun (_, a) -> Option.iter (walk ~depth) a) args
    | Texp_match (scrut, cases, _) ->
        walk ~depth scrut;
        List.iter (walk_case ~depth) cases
    | Texp_try (e', cases) ->
        walk ~depth e';
        List.iter (walk_case ~depth) cases
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) -> walk ~depth vb.vb_expr)
          vbs;
        walk ~depth body
    | Texp_tuple es | Texp_array es | Texp_construct (_, _, es) ->
        List.iter (walk ~depth) es
    | Texp_variant (_, e') -> Option.iter (walk ~depth) e'
    | Texp_record { fields; extended_expression; _ } ->
        Option.iter (walk ~depth) extended_expression;
        Array.iter
          (fun (_, def) ->
            match def with
            | Typedtree.Overridden (_, e') -> walk ~depth e'
            | Typedtree.Kept _ -> ())
          fields
    | Texp_field (e', _, _)
    | Texp_lazy e'
    | Texp_send (e', _)
    | Texp_setinstvar (_, _, _, e')
    | Texp_assert (e', _) ->
        walk ~depth e'
    | Texp_ifthenelse (c, t, f) ->
        walk ~depth c;
        walk ~depth t;
        Option.iter (walk ~depth) f
    | Texp_sequence (a, b) | Texp_while (a, b) ->
        walk ~depth a;
        walk ~depth b
    | Texp_for (_, _, lo, hi, _, body) ->
        walk ~depth lo;
        walk ~depth hi;
        walk ~depth body
    | Texp_letop { let_; ands; body; _ } ->
        walk ~depth let_.bop_exp;
        List.iter
          (fun (a : Typedtree.binding_op) -> walk ~depth a.bop_exp)
          ands;
        walk_case ~depth body
    | Texp_open (_, body) | Texp_letexception (_, body) -> walk ~depth body
    | Texp_letmodule (_, _, _, _, body) -> walk ~depth body
    | Texp_override (_, fields) ->
        List.iter (fun (_, _, e') -> walk ~depth e') fields
    | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_new _
    | Texp_object _ | Texp_pack _ | Texp_unreachable
    | Texp_extension_constructor _ ->
        ()
  in
  walk ~depth:0 arg

(* Roots: every ident in a task argument resolving to a node — an
   over-approximation (an ident mentioned is assumed callable). *)
let task_roots ~graph ~unit_name (arg : Typedtree.expression) =
  let roots = ref [] in
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match Callgraph.resolve graph ~unit_name p with
        | Callgraph.Node key -> roots := key :: !roots
        | _ -> ())
    | _ -> ());
    super.expr sub e
  in
  let it = { super with expr } in
  it.expr it arg;
  !roots

(* Direct module-level mutable writes of one node (used on every node
   reachable from a task root). *)
let global_writes ~graph (node : Callgraph.node) =
  let unit_name = node.Callgraph.n_unit in
  let out = ref [] in
  let record ~loc target what =
    match target_root graph ~unit_name target with
    | Some (_, Callgraph.Node key) ->
        let display =
          match Callgraph.find_node graph key with
          | Some n -> n.Callgraph.n_display
          | None -> key
        in
        out := (loc, display, what) :: !out
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_setfield (target, _, _, _) ->
        record ~loc:e.exp_loc target "a mutable field of"
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        match Callgraph.resolve graph ~unit_name p with
        | Callgraph.External name when not (atomic_call name) -> (
            match write_of_apply name args with
            | Some (target, what) -> record ~loc:e.exp_loc target what
            | None -> ())
        | _ -> ())
    | _ -> ());
    super.expr sub e
  in
  let it = { super with expr } in
  it.expr it node.Callgraph.n_expr;
  !out
