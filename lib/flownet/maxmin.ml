type allocation = {
  rates : float array;
  share : float array array;
  normalized : float array;
}

(* Feasibility network layout: node 0 is the source, nodes 1..n the flows,
   nodes n+1..n+m the interfaces, node n+m+1 the sink. *)
let source = 0
let flow_node i = 1 + i
let iface_node n j = 1 + n + j
let sink_node n m = 1 + n + m

type network = {
  graph : Maxflow.t;
  demand_edges : int array; (* per flow: source -> flow edge handle *)
  share_edges : (int * int) list array; (* per flow: (iface, handle) *)
  sink : int;
  eps : float;
}

let build (inst : Instance.t) ~demands =
  let n = Instance.n_flows inst and m = Instance.n_ifaces inst in
  let graph = Maxflow.create ~n:(n + m + 2) in
  let sink = sink_node n m in
  let scale =
    Array.fold_left Float.max 1.0 inst.capacities
    |> Float.max (Array.fold_left Float.max 0.0 demands)
  in
  let eps = Feq.scale_eps ~rel:1e-9 scale in
  let demand_edges =
    Array.init n (fun i ->
        Maxflow.add_edge graph ~src:source ~dst:(flow_node i) ~cap:demands.(i))
  in
  let share_edges =
    Array.init n (fun i ->
        List.filter_map
          (fun j ->
            if inst.allowed.(i).(j) then
              let h =
                Maxflow.add_edge graph ~src:(flow_node i)
                  ~dst:(iface_node n j) ~cap:Maxflow.infinity_cap
              in
              Some (j, h)
            else None)
          (List.init m Fun.id))
  in
  Array.iteri
    (fun j c ->
      ignore (Maxflow.add_edge graph ~src:(iface_node n j) ~dst:sink ~cap:c))
    inst.capacities;
  { graph; demand_edges; share_edges; sink; eps }

let total_demand demands = Array.fold_left ( +. ) 0.0 demands

let is_feasible (inst : Instance.t) ~demands =
  if Array.length demands <> Instance.n_flows inst then
    invalid_arg "Maxmin.is_feasible: demand vector has wrong length";
  let net = build inst ~demands in
  let eps = Float.max net.eps 1e-9 in
  let value = Maxflow.max_flow ~eps:net.eps net.graph ~src:source ~dst:net.sink in
  Feq.geq
    ~eps:(eps *. Float.of_int (Array.length demands + 1))
    value (total_demand demands)

let total_capacity (inst : Instance.t) =
  let used = Array.make (Instance.n_ifaces inst) false in
  Array.iter
    (fun row -> Array.iteri (fun j ok -> if ok then used.(j) <- true) row)
    inst.allowed;
  let sum = ref 0.0 in
  Array.iteri (fun j c -> if used.(j) then sum := !sum +. c) inst.capacities;
  !sum

let solve ?(tol = 1e-9) (inst : Instance.t) =
  let n = Instance.n_flows inst and m = Instance.n_ifaces inst in
  let rates = Array.make n 0.0 in
  let share = Array.make_matrix n m 0.0 in
  let connected i = Array.exists Fun.id inst.allowed.(i) in
  let frozen = Array.init n (fun i -> not (connected i)) in
  let cap_total = total_capacity inst in
  let scale = Float.max cap_total 1.0 in
  let feas_slack = Float.max (tol *. scale) 1e-9 in
  let demands_at t =
    Array.init n (fun i ->
        if frozen.(i) then rates.(i) else inst.weights.(i) *. t)
  in
  let feasible t =
    let demands = demands_at t in
    let net = build inst ~demands in
    let v = Maxflow.max_flow ~eps:net.eps net.graph ~src:source ~dst:net.sink in
    Feq.geq ~eps:feas_slack v (total_demand demands)
  in
  let any_active () = Array.exists (fun f -> not f) frozen in
  while any_active () do
    let min_phi =
      Array.to_list inst.weights
      |> List.filteri (fun i _ -> not frozen.(i))
      |> List.fold_left Float.min Float.max_float
    in
    let hi_bound = (cap_total /. min_phi) +. 1.0 in
    let t_star =
      if feasible hi_bound then hi_bound
      else begin
        (* Bisect the largest feasible uniform normalized rate. *)
        let lo = ref 0.0 and hi = ref hi_bound in
        while !hi -. !lo > tol *. Float.max 1.0 !hi do
          let mid = 0.5 *. (!lo +. !hi) in
          if feasible mid then lo := mid else hi := mid
        done;
        !lo
      end
    in
    (* Route the max flow at t_star and freeze the flows that cannot push
       more: those whose node does not co-reach the sink in the residual. *)
    let demands = demands_at t_star in
    let net = build inst ~demands in
    ignore (Maxflow.max_flow ~eps:net.eps net.graph ~src:source ~dst:net.sink);
    let coreach =
      Maxflow.residual_coreachable ~eps:(Float.max net.eps feas_slack) net.graph
        ~dst:net.sink
    in
    let froze_any = ref false in
    for i = 0 to n - 1 do
      if (not frozen.(i)) && not coreach.(flow_node i) then begin
        frozen.(i) <- true;
        rates.(i) <- inst.weights.(i) *. t_star;
        froze_any := true
      end
    done;
    if not !froze_any then
      (* Numerical stalemate: every remaining flow is within tolerance of its
         ceiling.  Freeze them all at t_star; the final routing below
         redistributes any microscopic slack. *)
      for i = 0 to n - 1 do
        if not frozen.(i) then begin
          frozen.(i) <- true;
          rates.(i) <- inst.weights.(i) *. t_star
        end
      done
  done;
  (* Final routing at the frozen demand vector to extract the share matrix. *)
  let net = build inst ~demands:rates in
  ignore (Maxflow.max_flow ~eps:net.eps net.graph ~src:source ~dst:net.sink);
  for i = 0 to n - 1 do
    List.iter
      (fun (j, h) -> share.(i).(j) <- Float.max 0.0 (Maxflow.flow_on net.graph h))
      net.share_edges.(i)
  done;
  let normalized = Array.mapi (fun i r -> r /. inst.weights.(i)) rates in
  { rates; share; normalized }
