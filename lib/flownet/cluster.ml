type t = { flows : int list; ifaces : int list; norm_rate : float }

(* Union-find over n flows followed by m interfaces. *)
module Uf = struct
  type t = { parent : int array; rank : int array }

  let create n = { parent = Array.init n Fun.id; rank = Array.make n 0 }

  let rec find t x =
    if t.parent.(x) = x then x
    else begin
      let root = find t t.parent.(x) in
      t.parent.(x) <- root;
      root
    end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then
      if t.rank.(ra) < t.rank.(rb) then t.parent.(ra) <- rb
      else if t.rank.(ra) > t.rank.(rb) then t.parent.(rb) <- ra
      else begin
        t.parent.(rb) <- ra;
        t.rank.(ra) <- t.rank.(ra) + 1
      end
end

let default_eps (inst : Instance.t) =
  Feq.scale_eps ~rel:1e-6 (Array.fold_left Float.max 0.0 inst.capacities)

let decompose (inst : Instance.t) ~share ~rates =
  let n = Instance.n_flows inst and m = Instance.n_ifaces inst in
  let eps = default_eps inst in
  let uf = Uf.create (n + m) in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      if share.(i).(j) > eps then Uf.union uf i (n + j)
    done
  done;
  let members = Hashtbl.create 16 in
  let add root node =
    let flows, ifaces = Option.value (Hashtbl.find_opt members root) ~default:([], []) in
    if node < n then Hashtbl.replace members root (node :: flows, ifaces)
    else Hashtbl.replace members root (flows, (node - n) :: ifaces)
  in
  for node = 0 to n + m - 1 do
    add (Uf.find uf node) node
  done;
  let clusters =
    Hashtbl.fold
      (fun _ (flows, ifaces) acc ->
        let flows = List.sort compare flows and ifaces = List.sort compare ifaces in
        let norm_rate =
          match flows with
          | [] -> 0.0
          | _ ->
              let sum =
                List.fold_left
                  (fun acc i -> acc +. (rates.(i) /. inst.weights.(i)))
                  0.0 flows
              in
              sum /. Float.of_int (List.length flows)
        in
        { flows; ifaces; norm_rate } :: acc)
      members []
  in
  List.sort (fun a b -> Float.compare b.norm_rate a.norm_rate) clusters

let find_cluster_of_flow clusters i =
  List.find (fun c -> List.mem i c.flows) clusters

let find_cluster_of_iface clusters j =
  List.find (fun c -> List.mem j c.ifaces) clusters

type violation =
  | Unequal_rates_in_cluster of { cluster : t; spread : float }
  | Not_in_best_cluster of {
      flow : int;
      own_rate : float;
      better : float;
      via_iface : int;
    }
  | Interface_not_work_conserving of {
      iface : int;
      used : float;
      capacity : float;
    }

let pp_violation ppf = function
  | Unequal_rates_in_cluster { cluster; spread } ->
      Format.fprintf ppf
        "cluster {flows=%s} has normalized-rate spread %.6g"
        (String.concat "," (List.map string_of_int cluster.flows))
        spread
  | Not_in_best_cluster { flow; own_rate; better; via_iface } ->
      Format.fprintf ppf
        "flow %d at normalized rate %.6g could join the %.6g cluster via \
         interface %d"
        flow own_rate better via_iface
  | Interface_not_work_conserving { iface; used; capacity } ->
      Format.fprintf ppf
        "interface %d carries %.6g of %.6g bit/s despite willing flows"
        iface used capacity

let check ?(tol = 1e-6) (inst : Instance.t) ~share ~rates =
  let n = Instance.n_flows inst and m = Instance.n_ifaces inst in
  let eps = default_eps inst in
  let clusters = decompose inst ~share ~rates in
  let scale =
    Float.max 1.0
      (Array.fold_left
         (fun acc i -> Float.max acc i)
         0.0
         (Array.mapi (fun i r -> r /. inst.weights.(i)) rates))
  in
  let close a b = Feq.approx ~eps:(tol *. scale) a b in
  let violations = ref [] in
  (* (1) Equal normalized rates within each cluster. *)
  List.iter
    (fun c ->
      match c.flows with
      | [] | [ _ ] -> ()
      | flows ->
          let norms = List.map (fun i -> rates.(i) /. inst.weights.(i)) flows in
          let lo = List.fold_left Float.min Float.max_float norms in
          let hi = List.fold_left Float.max Float.min_float norms in
          if not (close lo hi) then
            violations :=
              Unequal_rates_in_cluster { cluster = c; spread = hi -. lo }
              :: !violations)
    clusters;
  (* (2) Every flow sits in the best cluster it can reach. *)
  for i = 0 to n - 1 do
    let own = rates.(i) /. inst.weights.(i) in
    for j = 0 to m - 1 do
      if inst.allowed.(i).(j) then begin
        let c = find_cluster_of_iface clusters j in
        if c.flows <> [] && c.norm_rate > own && not (close c.norm_rate own) then
          violations :=
            Not_in_best_cluster
              { flow = i; own_rate = own; better = c.norm_rate; via_iface = j }
            :: !violations
      end
    done
  done;
  (* (3) Work conservation: an interface with at least one willing flow is
     saturated (all flows are assumed backlogged). *)
  for j = 0 to m - 1 do
    let willing = Instance.allowed_flows inst j <> [] in
    if willing && inst.capacities.(j) > 0.0 then begin
      let used = ref 0.0 in
      for i = 0 to n - 1 do
        used := !used +. share.(i).(j)
      done;
      if !used < inst.capacities.(j) *. (1.0 -. tol) -. eps then
        violations :=
          Interface_not_work_conserving
            { iface = j; used = !used; capacity = inst.capacities.(j) }
          :: !violations
    end
  done;
  List.rev !violations
