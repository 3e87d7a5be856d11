type t = {
  values : float array; (* distinct, increasing *)
  cum : float array; (* cumulative probability, same length *)
  count : int;
}

let of_weighted pairs =
  if pairs = [] then invalid_arg "Cdf.of_weighted: empty";
  let pairs = List.filter (fun (_, w) -> w > 0.0) pairs in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
  if total <= 0.0 then invalid_arg "Cdf.of_weighted: zero total weight";
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) pairs in
  (* Merge duplicate values, accumulating their mass. *)
  let merged =
    List.fold_left
      (fun acc (v, w) ->
        match acc with
        (* Exact duplicate merge: values already sorted by Float.compare. *)
        | (v', w') :: rest when Float.equal v' v -> (v', w' +. w) :: rest
        | _ -> (v, w) :: acc)
      [] sorted
    |> List.rev
  in
  let values = Array.of_list (List.map fst merged) in
  let cum = Array.make (Array.length values) 0.0 in
  let running = ref 0.0 in
  List.iteri
    (fun i (_, w) ->
      running := !running +. w;
      cum.(i) <- !running /. total)
    merged;
  (* Guard against float drift on the last step. *)
  if Array.length cum > 0 then cum.(Array.length cum - 1) <- 1.0;
  { values; cum; count = List.length merged }

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Cdf.of_samples: empty";
  let t = of_weighted (Array.to_list (Array.map (fun x -> (x, 1.0)) xs)) in
  { t with count = Array.length xs }

let eval t x =
  (* Largest index with values.(i) <= x; binary search. *)
  let n = Array.length t.values in
  if n = 0 || x < t.values.(0) then 0.0
  else
    let rec search lo hi =
      (* invariant: values.(lo) <= x, and hi is the first index > x (or n) *)
      if lo + 1 >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.values.(mid) <= x then search mid hi else search lo mid
    in
    t.cum.(search 0 n)

let quantile t ~q =
  assert (q >= 0.0 && q <= 1.0);
  let n = Array.length t.values in
  let rec search lo hi =
    if lo >= hi then t.values.(lo)
    else
      let mid = (lo + hi) / 2 in
      if t.cum.(mid) >= q then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)


let support t = Array.copy t.values

let points t = Array.init (Array.length t.values) (fun i -> (t.values.(i), t.cum.(i)))
