type binding = Saturated_ifaces of int list | No_interface

type explanation = {
  flow : int;
  rate : float;
  normalized : float;
  cluster_flows : int list;
  binding : binding;
  headroom : (int * float) list;
}

let saturated_ifaces (inst : Instance.t) (alloc : Maxmin.allocation) =
  let m = Instance.n_ifaces inst in
  List.filter
    (fun j ->
      let load =
        Array.fold_left (fun acc row -> acc +. row.(j)) 0.0 alloc.share
      in
      inst.capacities.(j) > 0.0
      && Feq.saturated ~rel:1e-6 ~used:load ~cap:inst.capacities.(j))
    (List.init m Fun.id)

let explain_one (inst : Instance.t) (alloc : Maxmin.allocation) clusters
    ~with_headroom flow =
  let n = Instance.n_flows inst and m = Instance.n_ifaces inst in
  if flow < 0 || flow >= n then invalid_arg "Diagnose.explain: flow out of range";
  let allowed = inst.allowed.(flow) in
  if not (Array.exists Fun.id allowed) then
    {
      flow;
      rate = 0.0;
      normalized = 0.0;
      cluster_flows = [];
      binding = No_interface;
      headroom =
        (if with_headroom then
           List.filter_map
             (fun j ->
               let relaxed =
                 Instance.make ~weights:inst.weights
                   ~capacities:inst.capacities
                   ~allowed:
                     (Array.mapi
                        (fun i row ->
                          if i = flow then
                            Array.mapi (fun k v -> v || k = j) row
                          else Array.copy row)
                        inst.allowed)
               in
               Some (j, (Maxmin.solve relaxed).rates.(flow)))
             (List.init m Fun.id)
         else []);
    }
  else begin
    let cluster = Cluster.find_cluster_of_flow clusters flow in
    let saturated = saturated_ifaces inst alloc in
    let binding_ifaces = List.filter (fun j -> List.mem j saturated) cluster.ifaces in
    let headroom =
      if with_headroom then
        List.filter_map
          (fun j ->
            if allowed.(j) then None
            else
              let relaxed =
                Instance.make ~weights:inst.weights ~capacities:inst.capacities
                  ~allowed:
                    (Array.mapi
                       (fun i row ->
                         if i = flow then
                           Array.mapi (fun k v -> v || k = j) row
                         else Array.copy row)
                       inst.allowed)
              in
              Some (j, (Maxmin.solve relaxed).rates.(flow)))
          (List.init m Fun.id)
      else []
    in
    {
      flow;
      rate = alloc.rates.(flow);
      normalized = alloc.normalized.(flow);
      cluster_flows = List.filter (fun f -> f <> flow) cluster.flows;
      binding = Saturated_ifaces binding_ifaces;
      headroom;
    }
  end

let context inst =
  let alloc = Maxmin.solve inst in
  let clusters = Cluster.decompose inst ~share:alloc.share ~rates:alloc.rates in
  (alloc, clusters)

let explain_all ?(with_headroom = true) inst =
  let alloc, clusters = context inst in
  List.init (Instance.n_flows inst)
    (explain_one inst alloc clusters ~with_headroom)

let pp ppf e =
  Format.fprintf ppf "@[<v>flow %d: rate %.4g (normalized %.4g)@," e.flow
    e.rate e.normalized;
  (match e.binding with
  | No_interface -> Format.fprintf ppf "  blocked: no allowed interface@,"
  | Saturated_ifaces [] ->
      Format.fprintf ppf "  not capacity-bound (source-limited)@,"
  | Saturated_ifaces ifaces ->
      Format.fprintf ppf "  limited by saturated interface(s) {%s}%s@,"
        (String.concat "," (List.map string_of_int ifaces))
        (match e.cluster_flows with
        | [] -> ""
        | fs ->
            Printf.sprintf ", shared with flows {%s}"
              (String.concat "," (List.map string_of_int fs))));
  List.iter
    (fun (j, r) ->
      Format.fprintf ppf "  allowing interface %d would give %.4g@," j r)
    e.headroom;
  Format.fprintf ppf "@]"
