(* A stepped profile keeps its change points twice: as [(time, rate)]
   pairs, and their times alone in a flat [float array].
   The lookups scan the flat times, which read unboxed, and return the
   rate from its pair, where it is already boxed, so a lookup with a
   boxed time allocates nothing; a rate read from a [float array] would
   be boxed afresh on return. *)
type t =
  | Constant of float
  | Steps of float * float array * (float * float) array

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

let next_change t time =
  match t with
  | Constant _ -> None
  | Steps (_, times, points) ->
      let i = first_after times time in
      if i < Array.length times then Some (fst points.(i)) else None
