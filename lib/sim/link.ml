type t =
  | Constant of float
  | Steps of float * (float * float) array
  | Periodic of float * (float * float) array

let constant rate =
  if rate < 0.0 then invalid_arg "Link.constant: negative rate";
  Constant rate

let steps ~initial changes =
  if initial < 0.0 then invalid_arg "Link.steps: negative rate";
  let rec check prev = function
    | [] -> ()
    | (time, rate) :: rest ->
        if time <= prev then invalid_arg "Link.steps: non-increasing times";
        if rate < 0.0 then invalid_arg "Link.steps: negative rate";
        check time rest
  in
  check 0.0 changes;
  Steps (initial, Array.of_list changes)

let periodic ~period segments =
  if not (period > 0.0) then invalid_arg "Link.periodic: period <= 0";
  (match segments with
  | (0.0, _) :: _ -> ()
  | _ -> invalid_arg "Link.periodic: first offset must be 0");
  let rec check prev = function
    | [] -> ()
    | (off, rate) :: rest ->
        if off < 0.0 || off >= period then
          invalid_arg "Link.periodic: offset out of range";
        if off < prev then invalid_arg "Link.periodic: non-increasing offsets";
        if rate < 0.0 then invalid_arg "Link.periodic: negative rate";
        check off rest
  in
  check 0.0 segments;
  Periodic (period, Array.of_list segments)

(* Index of the first point after [time] in [points], whose times are
   non-decreasing: the points at or before [time] form a prefix. *)
let rec first_after points time i =
  if i < Array.length points && fst points.(i) <= time then
    first_after points time (i + 1)
  else i

let rate_at t time =
  if time < 0.0 then invalid_arg "Link.rate_at: negative time";
  match t with
  | Constant r -> r
  | Steps (initial, changes) ->
      let i = first_after changes time 0 in
      if Int.equal i 0 then initial else snd changes.(i - 1)
  | Periodic (period, segments) ->
      (* The first offset is 0, so only a NaN phase leaves [i] at 0. *)
      let i = first_after segments (Float.rem time period) 0 in
      snd segments.(Int.max 0 (i - 1))

let next_change t time =
  match t with
  | Constant _ -> None
  | Steps (_, changes) ->
      Array.to_list changes
      |> List.find_opt (fun (at, _) -> at > time)
      |> Option.map fst
  | Periodic (period, segments) -> (
      let cycle = Float.of_int (int_of_float (time /. period)) *. period in
      let phase = time -. cycle in
      let within =
        Array.to_list segments |> List.find_opt (fun (off, _) -> off > phase)
      in
      match within with
      | Some (off, _) -> Some (cycle +. off)
      | None -> Some (cycle +. period))

let average t ~t0 ~t1 =
  if not (0.0 <= t0 && t0 < t1) then invalid_arg "Link.average: bad window";
  (* Walk the change points inside the window, integrating each constant
     segment exactly. *)
  let acc = ref 0.0 in
  let cursor = ref t0 in
  while !cursor < t1 do
    let rate = rate_at t !cursor in
    let segment_end =
      match next_change t !cursor with
      | Some at when at < t1 -> at
      | _ -> t1
    in
    acc := !acc +. (rate *. (segment_end -. !cursor));
    cursor := segment_end
  done;
  !acc /. (t1 -. t0)

let pp ppf = function
  | Constant r -> Format.fprintf ppf "constant %a" Midrr_core.Types.pp_rate r
  | Steps (initial, changes) ->
      Format.fprintf ppf "steps %a" Midrr_core.Types.pp_rate initial;
      Array.iter
        (fun (at, r) -> Format.fprintf ppf " @%gs->%a" at Midrr_core.Types.pp_rate r)
        changes
  | Periodic (period, segments) ->
      Format.fprintf ppf "periodic %.3gs:" period;
      Array.iter
        (fun (off, r) -> Format.fprintf ppf " +%gs:%a" off Midrr_core.Types.pp_rate r)
        segments
