type t = {
  weights : float array;
  capacities : float array;
  allowed : bool array array;
}

let make ~weights ~capacities ~allowed =
  let n = Array.length weights and m = Array.length capacities in
  if Array.length allowed <> n then
    invalid_arg "Instance.make: allowed has wrong number of rows";
  Array.iter
    (fun row ->
      if Array.length row <> m then
        invalid_arg "Instance.make: allowed has a ragged row")
    allowed;
  Array.iter
    (fun w ->
      if not (w > 0.0) then invalid_arg "Instance.make: non-positive weight")
    weights;
  Array.iter
    (fun c ->
      if c < 0.0 then invalid_arg "Instance.make: negative capacity")
    capacities;
  { weights; capacities; allowed }

let n_flows t = Array.length t.weights
let n_ifaces t = Array.length t.capacities

let allowed_ifaces t i =
  List.filter (fun j -> t.allowed.(i).(j)) (List.init (n_ifaces t) Fun.id)

let allowed_flows t j =
  List.filter (fun i -> t.allowed.(i).(j)) (List.init (n_flows t) Fun.id)

let pp ppf t =
  Format.fprintf ppf "@[<v>flows=%d ifaces=%d@," (n_flows t) (n_ifaces t);
  Array.iteri
    (fun i row ->
      let edges =
        Array.to_list row
        |> List.mapi (fun j ok -> if ok then Some j else None)
        |> List.filter_map Fun.id
        |> List.map string_of_int
        |> String.concat ","
      in
      Format.fprintf ppf "flow %d: phi=%g ifaces={%s}@," i t.weights.(i) edges)
    t.allowed;
  Array.iteri
    (fun j c -> Format.fprintf ppf "iface %d: %g bit/s@," j c)
    t.capacities;
  Format.fprintf ppf "@]"
