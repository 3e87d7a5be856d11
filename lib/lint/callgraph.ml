(* Call graph over fully-resolved Typedtree identifiers.

   Nodes are top-level (and nested-module / functor-body) value bindings
   of every compilation unit handed to [build].  Node keys use the full
   dune-mangled unit name ("Midrr_core__Sched_prog.Make.enqueue") so two
   libraries can both define [Util.log] without colliding; display names
   drop the mangle prefix ("Sched_prog.Make.enqueue") and are what
   config specs match against.

   Reference resolution handles the three shapes we observe in real
   cmts:
   - local [Pident]s, resolved through per-unit ident tables (values and
     module bindings, including aliases like [module Event = ...] and
     functor applications);
   - cross-module paths through the library wrapper alias
     ("Midrr_core.Active_ring.length" when the unit on disk is
     "Midrr_core__Active_ring");
   - external paths ("Stdlib.Array.set") which become [`External] with
     their dotted name. *)

type node = {
  n_key : string;
  n_display : string;
  n_unit : string;  (* cmt_modname of the defining unit *)
  n_file : string;  (* repo-relative source file *)
  n_loc : Location.t;
  n_expr : Typedtree.expression;  (* right-hand side of the binding *)
  n_params : Ident.t list list;
      (* idents bound by each value parameter, in order, from peeling the
         leading lambda chain of [n_expr] *)
  n_is_function : bool;
  n_allows : Rule.t list;  (* [@midrr.lint.allow] on the binding *)
}

type resolution =
  | Node of string  (* key into [nodes] *)
  | External of string  (* canonical dotted name, e.g. "Stdlib.Array.set" *)
  | Local of Ident.t  (* parameter / let-bound value of the enclosing fn *)

type unit_info = {
  u_modname : string;
  u_display : string;
  u_file : string;
  u_values : (string, string) Hashtbl.t;  (* Ident.unique_name -> node key *)
  u_modules : (string, string list) Hashtbl.t;
      (* Ident.unique_name -> absolute components, head = a unit modname or an
         external root like "Stdlib" *)
  u_allows : Rule.t list;  (* file-wide [@@@midrr.lint.allow] *)
}

type t = {
  units : (string, unit_info) Hashtbl.t;
  nodes : (string, node) Hashtbl.t;
  edges : (string, (string, unit) Hashtbl.t) Hashtbl.t;
}

(* "Midrr_core__Active_ring" -> "Active_ring"; "Dune__exe__Cli" -> "Cli" *)
let unit_display modname =
  let n = String.length modname in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if Char.equal modname.[i] '_' && Char.equal modname.[i + 1] '_' then
      last_sep (i + 2) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some j when j < n -> String.sub modname j (n - j)
  | _ -> modname

let rec path_components p acc =
  match p with
  | Path.Pident id -> (id, acc)
  | Path.Pdot (p, s) -> path_components p (s :: acc)
  | Path.Papply (p, _) -> path_components p acc
  | Path.Pextra_ty (p, _) -> path_components p acc

(* Turn absolute components (head = module name as written) into a node
   or external.  The head may be a real unit name, a wrapper-alias pair
   ("Midrr_core" "Active_ring" -> unit "Midrr_core__Active_ring"), or an
   external root. *)
let canonical t comps =
  let join c0 rest =
    let key = String.concat "." (c0 :: rest) in
    if Hashtbl.mem t.nodes key then Node key else External key
  in
  (* The wrapper-alias pair comes first: with the generated wrapper
     unit ([Midrr_core]) loaded, "Midrr_core.Active_ring.length" must
     still reach the unit that defines it. *)
  match comps with
  | [] -> External ""
  | c0 :: c1 :: rest when Hashtbl.mem t.units (c0 ^ "__" ^ c1) ->
      join (c0 ^ "__" ^ c1) rest
  | c0 :: rest when Hashtbl.mem t.units c0 -> join c0 rest
  | _ -> External (String.concat "." comps)

let resolve t ~unit_name p =
  let head, comps = path_components p [] in
  match Hashtbl.find_opt t.units unit_name with
  | None -> External (String.concat "." (Ident.name head :: comps))
  | Some u -> (
      match (Hashtbl.find_opt u.u_values (Ident.unique_name head), comps) with
      | Some key, [] -> if Hashtbl.mem t.nodes key then Node key else Local head
      | _ -> (
          match Hashtbl.find_opt u.u_modules (Ident.unique_name head) with
          | Some abs -> canonical t (abs @ comps)
          | None ->
              if Ident.global head then
                canonical t (Ident.name head :: comps)
              else Local head))

(* "Stdlib.Array.set" -> "Array.set" *)
let strip_stdlib name =
  if String.starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

(* Display name used in messages and spec matching.  For nodes, the
   stored display; for externals, the dotted name sans "Stdlib.". *)
let display_of_resolution t = function
  | Node key -> (
      match Hashtbl.find_opt t.nodes key with
      | Some n -> n.n_display
      | None -> key)
  | External name -> strip_stdlib name
  | Local id -> Ident.name id

(* ---- construction ---------------------------------------------------- *)

let create () =
  { units = Hashtbl.create 32; nodes = Hashtbl.create 256;
    edges = Hashtbl.create 256 }

(* Peel the leading lambda chain of a binding's right-hand side,
   collecting one ident group per value parameter.  A multi-case
   [function] contributes its synthesized [param] and stops the chain
   (its cases are the body). *)
let rec peel_params (e : Typedtree.expression) acc =
  match e.exp_desc with
  | Texp_function { param; cases = [ c ]; _ } when Option.is_none c.c_guard ->
      let group =
        match Typedtree.pat_bound_idents c.c_lhs with
        | [] -> [ param ]
        | ids -> ids
      in
      peel_params c.c_rhs (group :: acc)
  | Texp_function { param; _ } -> List.rev ([ param ] :: acc)
  | _ -> List.rev acc

let node_of_binding ~unit_name ~display_prefix ~key_prefix ~file ~allows
    (vb : Typedtree.value_binding) id =
  let name = Ident.name id in
  let params = peel_params vb.vb_expr [] in
  {
    n_key = key_prefix ^ name;
    n_display = display_prefix ^ name;
    n_unit = unit_name;
    n_file = file;
    n_loc = vb.vb_loc;
    n_expr = vb.vb_expr;
    n_params = params;
    n_is_function = (match params with [] -> false | _ -> true);
    n_allows = allows;
  }

(* Resolve a module expression to absolute components, if it bottoms out
   in a module path (alias or functor application).  [None] for literal
   structures and functors, which are registered by recursion instead. *)
let rec module_expr_target u (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) ->
      let head, comps = path_components p [] in
      let resolved =
        match Hashtbl.find_opt u.u_modules (Ident.unique_name head) with
        | Some abs -> abs @ comps
        | None -> Ident.name head :: comps
      in
      Some resolved
  | Tmod_apply (f, _, _) | Tmod_apply_unit f -> module_expr_target u f
  | Tmod_constraint (me, _, _, _) -> module_expr_target u me
  | _ -> None

let add_edge t from_key to_key =
  let tbl =
    match Hashtbl.find_opt t.edges from_key with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.edges from_key tbl;
        tbl
  in
  Hashtbl.replace tbl to_key ()

(* Register every binding of a structure, recursing into literal
   submodules and functor bodies.  [prefix] is the dotted submodule path
   ("" at top level, "Make." inside [module Make = struct ... end]). *)
let rec register_structure t u ~prefix (str : Typedtree.structure) =
  let file = u.u_file in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              let allows = Rule.allows_of_attrs vb.vb_attributes in
              List.iter
                (fun id ->
                  let node =
                    node_of_binding ~unit_name:u.u_modname
                      ~display_prefix:(u.u_display ^ "." ^ prefix)
                      ~key_prefix:(u.u_modname ^ "." ^ prefix)
                      ~file ~allows vb id
                  in
                  (* first binding wins on shadowing: later references
                     resolve through the ident table anyway *)
                  if not (Hashtbl.mem t.nodes node.n_key) then
                    Hashtbl.replace t.nodes node.n_key node;
                  Hashtbl.replace u.u_values (Ident.unique_name id) node.n_key)
                (Typedtree.pat_bound_idents vb.vb_pat))
            vbs
      | Tstr_module mb -> register_module t u ~prefix mb
      | Tstr_recmodule mbs -> List.iter (register_module t u ~prefix) mbs
      | Tstr_include incl -> (
          match incl.incl_mod.mod_desc with
          | Tmod_structure str -> register_structure t u ~prefix str
          | _ -> ())
      | _ -> ())
    str.str_items

and register_module t u ~prefix (mb : Typedtree.module_binding) =
  let name =
    match mb.mb_name.txt with Some n -> n | None -> "_"
  in
  let rec unwrap (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_constraint (me, _, _, _) -> unwrap me
    | _ -> me
  in
  let me = unwrap mb.mb_expr in
  let register_ident comps =
    match mb.mb_id with
    | Some id -> Hashtbl.replace u.u_modules (Ident.unique_name id) comps
    | None -> ()
  in
  match me.mod_desc with
  | Tmod_structure str ->
      register_structure t u ~prefix:(prefix ^ name ^ ".") str;
      register_ident [ u.u_modname; "<dot>" ]
      (* own-unit nested module: mark resolvable via components below *)
  | Tmod_functor (_, body) -> (
      match unwrap body with
      | { mod_desc = Tmod_structure str; _ } ->
          register_structure t u ~prefix:(prefix ^ name ^ ".") str;
          register_ident [ u.u_modname; "<dot>" ]
      | _ -> ())
  | _ -> (
      match module_expr_target u me with
      | Some comps -> register_ident comps
      | None -> ())

(* The "<dot>" marker above is a placeholder: locally-defined submodules
   are reached through [u_values] ident stamps (their bindings were
   registered directly), so a [Pdot] through the submodule ident never
   needs the components form.  Re-register them properly here with the
   real dotted prefix so [M.f] references inside the same unit resolve. *)

(* [let module M = P in …] names [P] for the rest of its body as
   [module M = P] does at top level; module idents are unique within a
   unit, so both go into [u_modules], and [resolve] follows either.
   Outer bindings are visited first, so an alias of an alias resolves. *)
let register_let_modules u (str : Typedtree.structure) =
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_letmodule (Some id, _, _, me, _) ->
        Option.iter
          (Hashtbl.replace u.u_modules (Ident.unique_name id))
          (module_expr_target u me)
    | _ -> ());
    super.expr sub e
  in
  let it = { super with expr } in
  it.structure it str

let register_unit t ~modname ~file (str : Typedtree.structure) =
  let file_allows =
    List.concat_map
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_attribute attr -> Rule.allows_of_attrs [ attr ]
        | _ -> [])
      str.str_items
  in
  let u =
    {
      u_modname = modname;
      u_display = unit_display modname;
      u_file = file;
      u_values = Hashtbl.create 64;
      u_modules = Hashtbl.create 8;
      u_allows = file_allows;
    }
  in
  Hashtbl.replace t.units modname u;
  register_structure t u ~prefix:"" str;
  register_let_modules u str;
  u

(* Fix up own-unit nested-module idents: replace the "<dot>" placeholder
   with real components so [Sub.f]-style local references resolve
   to "Unit.Sub.f" node keys when the submodule is literal, or
   stay resolvable when it is an alias (handled in register_module). *)
let patch_local_submodules u (str : Typedtree.structure) =
  let rec walk ~comps (items : Typedtree.structure_item list) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_module mb -> patch_mb ~comps mb
        | Tstr_recmodule mbs -> List.iter (patch_mb ~comps) mbs
        | _ -> ())
      items
  and patch_mb ~comps (mb : Typedtree.module_binding) =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec unwrap (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_constraint (me, _, _, _) -> unwrap me
      | Tmod_functor (_, body) -> unwrap body
      | _ -> me
    in
    match (unwrap mb.mb_expr).mod_desc with
    | Tmod_structure sub ->
        (match mb.mb_id with
        | Some id ->
            Hashtbl.replace u.u_modules (Ident.unique_name id) (comps @ [ name ])
        | None -> ());
        walk ~comps:(comps @ [ name ]) sub.str_items
    | _ -> ()
  in
  walk ~comps:[ u.u_modname ] str.str_items

(* ---- edges ----------------------------------------------------------- *)

(* A constant's right-hand side runs once, at module initialisation: a
   reference to it reads the built value and reaches none of its
   callees.  Only a function, or a binding that may evaluate to one (an
   application or an alias), passes reachability on. *)
let passes_reach node =
  node.n_is_function
  ||
  match node.n_expr.exp_desc with
  | Texp_apply _ | Texp_ident _ -> true
  | _ -> false

let collect_edges t node =
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match resolve t ~unit_name:node.n_unit p with
        | Node key when not (String.equal key node.n_key) ->
            add_edge t node.n_key key
        | Node _ | External _ | Local _ -> ())
    | _ -> ());
    super.expr sub e
  in
  let it = { super with expr } in
  it.expr it node.n_expr

(* ---- public API ------------------------------------------------------ *)

type input = {
  in_modname : string;
  in_file : string;
  in_structure : Typedtree.structure;
}

let build inputs =
  let t = create () in
  (* two passes so cross-unit references resolve regardless of order *)
  let us =
    List.map
      (fun i ->
        let u = register_unit t ~modname:i.in_modname ~file:i.in_file
            i.in_structure in
        patch_local_submodules u i.in_structure;
        (u, i))
      inputs
  in
  List.iter
    (fun (u, _) ->
      Hashtbl.iter
        (fun _ key ->
          match Hashtbl.find_opt t.nodes key with
          | Some node when passes_reach node -> collect_edges t node
          | Some _ | None -> ())
        u.u_values)
    us;
  t

let find_node t key = Hashtbl.find_opt t.nodes key
let unit_allows t modname =
  match Hashtbl.find_opt t.units modname with
  | Some u -> u.u_allows
  | None -> []

let iter_nodes t f = Hashtbl.iter (fun _ n -> f n) t.nodes

let callees t key =
  match Hashtbl.find_opt t.edges key with
  | Some tbl -> Hashtbl.fold (fun k () acc -> k :: acc) tbl []
  | None -> []

(* Does [spec] (a config display-name pattern) match node [n]?  Exact
   display or key match, or prefix match when the spec ends in ".*". *)
let spec_matches spec (n : node) =
  let star =
    String.length spec > 2
    && String.equal (String.sub spec (String.length spec - 2) 2) ".*"
  in
  if star then
    let prefix = String.sub spec 0 (String.length spec - 1) in
    let has_prefix s =
      String.length s > String.length prefix
      && String.equal (String.sub s 0 (String.length prefix)) prefix
    in
    has_prefix n.n_display || has_prefix n.n_key
  else String.equal spec n.n_display || String.equal spec n.n_key

(* A resolution's name ends with [spec] at a module boundary: used for
   par-entry matching, where "Par.run" must match both the repo's
   "Midrr_par__Par.run" node and a fixture-local "Fixture.Par.run". *)
let name_has_suffix ~spec name =
  String.equal name spec
  ||
  let ns = String.length name and ss = String.length spec in
  ns > ss + 1
  && String.equal (String.sub name (ns - ss) ss) spec
  && Char.equal name.[ns - ss - 1] '.'

let resolution_matches_entry t ~spec r =
  match r with
  | Node key -> (
      match find_node t key with
      | Some n ->
          name_has_suffix ~spec n.n_display || name_has_suffix ~spec n.n_key
      | None -> false)
  | External name -> name_has_suffix ~spec name
  | Local _ -> false

(* Breadth-first reachability from [roots] (node keys).  Returns a table
   mapping each reachable key to the root's display name that first
   reached it (for blame messages).  A node [stop] holds is reached but
   not expanded. *)
let reachable ?(stop = fun _ -> false) t roots =
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun (key, why) ->
      if (not (Hashtbl.mem seen key)) && Hashtbl.mem t.nodes key then (
        Hashtbl.replace seen key why;
        Queue.add key queue))
    roots;
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    let why =
      match Hashtbl.find_opt seen key with Some w -> w | None -> key
    in
    let expand =
      match Hashtbl.find_opt t.nodes key with
      | Some n -> not (stop n)
      | None -> true
    in
    if expand then
      List.iter
        (fun callee ->
          if not (Hashtbl.mem seen callee) then (
            Hashtbl.replace seen callee why;
            Queue.add callee queue))
        (callees t key)
  done;
  seen
