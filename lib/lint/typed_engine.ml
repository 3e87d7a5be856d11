(* Orchestration: build the call graph over all loaded units, then run
   R1-R5 on each unit and R4 on each interface ([Unit_rules]), R7
   (static zero-allocation over the entry reachability set), R8
   (domain-safety over the Par-task reachability set) and R9 (every val
   of a lib/ interface has a caller among the loaded units). *)

let check_r7 ~cfg ~graph ~add_finding ~add_warning =
  let roots = ref [] in
  List.iter
    (fun spec ->
      let matched = ref false in
      Callgraph.iter_nodes graph (fun n ->
          if Callgraph.spec_matches spec n then begin
            matched := true;
            roots := (n.Callgraph.n_key, spec) :: !roots
          end);
      if not !matched then
        add_warning
          (Printf.sprintf
             "typed entry point spec matched no value: %s (stale config, or \
              the unit's .cmt was not loaded)"
             spec))
    cfg.Config.typed_entry_points;
  (* A binding that allows R7 is a cold path by declaration (a
     registration, a constructor): what it calls runs on that path. *)
  let stop (n : Callgraph.node) = List.exists (Rule.equal Rule.R7) n.n_allows in
  let reach = Callgraph.reachable ~stop graph !roots in
  Hashtbl.iter
    (fun key entry_spec ->
      match Callgraph.find_node graph key with
      | None -> ()
      | Some node ->
          let file_allows = Callgraph.unit_allows graph node.Callgraph.n_unit in
          let allowed, with_allows =
            Rule.allow_stack (file_allows @ node.Callgraph.n_allows)
          in
          let allowed = allowed Rule.R7 in
          let emit ~loc msg =
            add_finding
              (Finding.v ~file:node.Callgraph.n_file ~loc ~rule:Rule.R7
                 (Printf.sprintf "%s (in [%s], reachable from entry [%s])"
                    msg node.Callgraph.n_display entry_spec))
          in
          Alloc_rule.check_node ~cfg ~graph ~emit ~with_allows ~allowed node)
    reach

(* Walk a unit's structure for applications of Par entry points. *)
let par_sites ~cfg ~graph ~unit_name (str : Typedtree.structure) =
  let sites = ref [] in
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        let r = Callgraph.resolve graph ~unit_name p in
        if
          List.exists
            (fun spec -> Callgraph.resolution_matches_entry graph ~spec r)
            cfg.Config.par_task_entries
        then
          let entry = Callgraph.display_of_resolution graph r in
          let task_args =
            List.filter_map
              (fun (label, arg) ->
                match (label, arg) with
                | Asttypes.Optional _, _ -> None
                | _, Some a -> Some a
                | _, None -> None)
              args
          in
          sites := (e.exp_loc, entry, task_args) :: !sites
    | _ -> ());
    super.expr sub e
  in
  let it = { super with expr } in
  it.structure it str;
  List.rev !sites

let check_r8 ~cfg ~graph ~inputs ~add_finding =
  let sums = Domain_rule.summaries graph in
  let all_roots = ref [] in
  List.iter
    (fun (ui : Callgraph.input) ->
      (* the executor layer owns its own synchronization: its internal
         Par.run self-calls are not user task sites *)
      if not (Config.domain_spawn_allowed cfg ui.in_file) then
        let unit_name = ui.in_modname in
        let file_allows = Callgraph.unit_allows graph unit_name in
        List.iter
          (fun (_, entry, task_args) ->
            List.iter
              (fun arg ->
                let allowed, with_allows = Rule.allow_stack file_allows in
                let allowed = allowed Rule.R8 in
                let emit ~loc msg =
                  add_finding
                    (Finding.v ~file:ui.in_file ~loc ~rule:Rule.R8
                       (Printf.sprintf "%s (task of [%s])" msg entry))
                in
                Domain_rule.scan_task_arg ~graph ~summaries:sums ~unit_name
                  ~emit ~allowed ~with_allows arg;
                List.iter
                  (fun key -> all_roots := (key, entry) :: !all_roots)
                  (Domain_rule.task_roots ~graph ~unit_name arg))
              task_args)
          (par_sites ~cfg ~graph ~unit_name ui.in_structure))
    inputs;
  let reach = Callgraph.reachable graph !all_roots in
  Hashtbl.iter
    (fun key entry ->
      match Callgraph.find_node graph key with
      | None -> ()
      | Some node ->
          if not (Config.domain_spawn_allowed cfg node.Callgraph.n_file) then
            let allows =
              Callgraph.unit_allows graph node.Callgraph.n_unit
              @ node.Callgraph.n_allows
            in
            if not (List.exists (fun r -> Rule.compare r Rule.R8 = 0) allows)
            then
              List.iter
                (fun (loc, display, what) ->
                  add_finding
                    (Finding.v ~file:node.Callgraph.n_file ~loc ~rule:Rule.R8
                       (Printf.sprintf
                          "[%s] writes %s module-level state [%s] and is \
                           reachable from a Par task (via [%s])"
                          node.Callgraph.n_display what display entry)))
                (Domain_rule.global_writes ~graph node))
    reach

let analyze ?(config = Config.default) ?(interfaces = [])
    (inputs : Callgraph.input list) =
  let graph = Callgraph.build inputs in
  let findings = ref [] and warnings = ref [] in
  let add_finding f = findings := f :: !findings in
  let add_warning w = warnings := w :: !warnings in
  List.iter
    (fun (ui : Callgraph.input) ->
      (* dune's generated units ([.ml-gen]) hold no source of their own *)
      if Filename.check_suffix ui.in_file ".ml" then
        Unit_rules.check_structure ~config ~graph ~unit_name:ui.in_modname
          ~file:ui.in_file ~add_finding ui.in_structure)
    inputs;
  List.iter
    (fun (i : Export_rule.interface) ->
      Unit_rules.check_signature ~file:i.file ~add_finding i.signature)
    interfaces;
  check_r7 ~cfg:config ~graph ~add_finding ~add_warning;
  check_r8 ~cfg:config ~graph ~inputs ~add_finding;
  Export_rule.check ~graph ~units:inputs ~interfaces ~add_finding;
  let findings = List.sort_uniq Finding.compare !findings in
  (findings, List.rev !warnings)
