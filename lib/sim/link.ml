(* A stepped or periodic profile keeps its change points twice: as
   [(time, rate)] pairs, and their times alone in a flat [float array].
   The lookups scan the flat times, which read unboxed, and return the
   rate from its pair, where it is already boxed, so a lookup with a
   boxed time allocates nothing; a rate read from a [float array] would
   be boxed afresh on return. *)
type t =
  | Constant of float
  | Steps of float * float array * (float * float) array
  | Periodic of float * float array * (float * float) array

let times_of points = Array.map fst points

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
  let points = Array.of_list changes in
  Steps (initial, times_of points, points)

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
  let points = Array.of_list segments in
  Periodic (period, times_of points, points)

(* Index of the first of [times] after [time]; [times] is
   non-decreasing, so the times at or before [time] form a prefix. *)
let[@inline] first_after (times : float array) (time : float) =
  let i = ref 0 in
  while !i < Array.length times && times.(!i) <= time do
    incr i
  done;
  !i

let rate_at t time =
  if time < 0.0 then invalid_arg "Link.rate_at: negative time";
  match t with
  | Constant r -> r
  | Steps (initial, times, points) ->
      let i = first_after times time in
      if Int.equal i 0 then initial else snd points.(i - 1)
  | Periodic (period, offsets, points) ->
      (* The first offset is 0, so only a NaN phase leaves [i] at 0. *)
      let i = first_after offsets (Float.rem time period) in
      snd points.(Int.max 0 (i - 1))

let next_change t time =
  match t with
  | Constant _ -> None
  | Steps (_, times, points) ->
      let i = first_after times time in
      if i < Array.length times then Some (fst points.(i)) else None
  | Periodic (period, offsets, _) ->
      let cycle = Float.of_int (int_of_float (time /. period)) *. period in
      let i = first_after offsets (time -. cycle) in
      if i < Array.length offsets then Some (cycle +. offsets.(i))
      else Some (cycle +. period)

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
  | Steps (initial, _, changes) ->
      Format.fprintf ppf "steps %a" Midrr_core.Types.pp_rate initial;
      Array.iter
        (fun (at, r) -> Format.fprintf ppf " @%gs->%a" at Midrr_core.Types.pp_rate r)
        changes
  | Periodic (period, _, segments) ->
      Format.fprintf ppf "periodic %.3gs:" period;
      Array.iter
        (fun (off, r) -> Format.fprintf ppf " +%gs:%a" off Midrr_core.Types.pp_rate r)
        segments
