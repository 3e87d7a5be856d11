type spec = {
  weights : float array;
  capacities : float array;
  allowed : bool array array;
  arrivals : (int * float) list array;
}

type result = {
  finish_times : float array array;
  epochs : (float * float array) list;
}

type flow_run = {
  sizes : float array; (* bytes per packet *)
  times : float array; (* arrival per packet *)
  mutable next_arrival : int; (* first packet not yet arrived *)
  mutable head : int; (* first packet not yet finished *)
  mutable remaining : float; (* bytes left of packet [head], if arrived *)
  finish : float array;
}

let validate spec =
  let n = Array.length spec.weights in
  if Array.length spec.allowed <> n || Array.length spec.arrivals <> n then
    invalid_arg "Pgps_fluid.run: shape mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length spec.capacities then
        invalid_arg "Pgps_fluid.run: ragged allowed matrix")
    spec.allowed;
  Array.iter
    (fun pkts ->
      let rec sorted = function
        | (_, a) :: ((_, b) :: _ as rest) ->
            if a > b then invalid_arg "Pgps_fluid.run: unsorted arrivals"
            else sorted rest
        | _ -> ()
      in
      sorted pkts;
      List.iter
        (fun (s, a) ->
          if s <= 0 then invalid_arg "Pgps_fluid.run: non-positive size";
          if a < 0.0 then invalid_arg "Pgps_fluid.run: negative arrival")
        pkts)
    spec.arrivals

let run ?(horizon = 1e6) spec =
  validate spec;
  let n = Array.length spec.weights in
  let runs =
    Array.map
      (fun pkts ->
        let sizes = Array.of_list (List.map (fun (s, _) -> Float.of_int s) pkts) in
        let times = Array.of_list (List.map snd pkts) in
        {
          sizes;
          times;
          next_arrival = 0;
          head = 0;
          remaining = 0.0;
          finish = Array.make (Array.length sizes) Float.infinity;
        })
      spec.arrivals
  in
  let epochs = ref [] in
  let now = ref 0.0 in
  (* Admit every packet that has arrived by [t]. *)
  let admit t =
    Array.iter
      (fun r ->
        while
          r.next_arrival < Array.length r.times && r.times.(r.next_arrival) <= t
        do
          if r.next_arrival = r.head then r.remaining <- r.sizes.(r.head);
          r.next_arrival <- r.next_arrival + 1
        done)
      runs
  in
  let backlogged r = r.head < r.next_arrival in
  let all_done () =
    Array.for_all (fun r -> r.head >= Array.length r.sizes) runs
  in
  let next_arrival_time () =
    Array.fold_left
      (fun acc r ->
        if r.next_arrival < Array.length r.times then
          Float.min acc r.times.(r.next_arrival)
        else acc)
      Float.infinity runs
  in
  admit !now;
  while (not (all_done ())) && !now < horizon do
    let active = Array.map backlogged runs in
    let rates =
      if Array.exists Fun.id active then begin
        (* Max-min over the backlogged subset only: idle flows place no
           demand, so restrict the instance to active rows. *)
        let idx =
          Array.to_list active
          |> List.mapi (fun i a -> if a then Some i else None)
          |> List.filter_map Fun.id
        in
        let sub_weights =
          Array.of_list (List.map (fun i -> spec.weights.(i)) idx)
        in
        let sub_allowed =
          Array.of_list (List.map (fun i -> spec.allowed.(i)) idx)
        in
        let inst =
          Midrr_flownet.Instance.make ~weights:sub_weights
            ~capacities:spec.capacities ~allowed:sub_allowed
        in
        let alloc = Midrr_flownet.Maxmin.solve inst in
        let rates = Array.make n 0.0 in
        List.iteri (fun k i -> rates.(i) <- alloc.rates.(k)) idx;
        rates
      end
      else Array.make n 0.0
    in
    epochs := (!now, rates) :: !epochs;
    (* The epoch ends at the next packet completion or arrival. *)
    let dt_complete =
      Array.to_list runs
      |> List.mapi (fun i r ->
             if backlogged r && rates.(i) > 0.0 then
               8.0 *. r.remaining /. rates.(i)
             else Float.infinity)
      |> List.fold_left Float.min Float.infinity
    in
    let t_next = Float.min (!now +. dt_complete) (next_arrival_time ()) in
    let t_next = Float.min t_next horizon in
    if Float.is_finite t_next && t_next > !now then begin
      let dt = t_next -. !now in
      Array.iteri
        (fun i r ->
          if backlogged r && rates.(i) > 0.0 then begin
            r.remaining <- r.remaining -. (rates.(i) *. dt /. 8.0);
            if r.remaining <= 1e-9 then begin
              r.finish.(r.head) <- t_next;
              r.head <- r.head + 1;
              if backlogged r then r.remaining <- r.sizes.(r.head)
            end
          end)
        runs;
      now := t_next;
      admit !now
    end
    else
      (* No completion and no arrival can happen: starved flows remain
         unfinished forever. *)
      now := horizon
  done;
  {
    finish_times = Array.map (fun r -> r.finish) runs;
    epochs = List.rev !epochs;
  }
