(* The clock is a boxed float field, written once per event from the
   popped timestamp and shared by every [now] reader; an unboxed clock
   would be re-boxed at each reader instead. *)
type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : float;
  mutable executed : int;
}

let create ?capacity () =
  { queue = Event_queue.create ?capacity (); clock = 0.0; executed = 0 }

(* Returns the clock field's own box, which allocates nothing.  test_sim's
   allocation gate counts the words of an event. *)
let now t = t.clock

let[@inline] schedule t ~at f =
  if at < t.clock then invalid_arg "Engine.schedule: time in the past";
  Event_queue.push t.queue ~time:at f

let[@inline] schedule_in t ~after f =
  if after < 0.0 then invalid_arg "Engine.schedule_in: negative delay";
  schedule t ~at:(t.clock +. after) f

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    t.clock <- Event_queue.min_time t.queue;
    let f = Event_queue.pop_min t.queue in
    t.executed <- t.executed + 1;
    f ();
    true
  end

let run ?until t =
  match until with
  | None ->
      while step t do
        ()
      done
  | Some limit ->
      while Event_queue.due t.queue ~until:limit do
        ignore (step t)
      done;
      if limit > t.clock then t.clock <- limit

let pending t = Event_queue.length t.queue

let executed t = t.executed
