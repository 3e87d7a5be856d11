(* Flat parallel storage — unboxed times plus one column per event field
   ([Event.Columns]) — so [record] copies the producer's record in six
   stores and allocates nothing.  Entries are decoded only when a fold
   reads them. *)

type entry = { time : float; event : Event.t }

type t = {
  capacity : int;
  times : float array;
  cols : Event.Columns.t;
  mutable next : int; (* write position *)
  mutable total : int; (* entries ever recorded *)
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity <= 0";
  {
    capacity;
    times = Array.make capacity 0.0;
    cols = Event.Columns.create capacity;
    next = 0;
    total = 0;
  }

let record t ~time ev =
  t.times.(t.next) <- time;
  Event.Columns.store t.cols t.next ev;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let sink t : Sink.t = fun ~time ev -> record t ~time ev

let length t = Stdlib.min t.total t.capacity
let total t = t.total
let dropped t = Stdlib.max 0 (t.total - t.capacity)

let clear t =
  t.next <- 0;
  t.total <- 0

let fold t ~init ~f =
  let n = length t in
  let start = if t.total <= t.capacity then 0 else t.next in
  let acc = ref init in
  for i = 0 to n - 1 do
    let idx = (start + i) mod t.capacity in
    acc :=
      f !acc { time = t.times.(idx); event = Event.Columns.decode t.cols idx }
  done;
  !acc

let iter t ~f = fold t ~init:() ~f:(fun () e -> f e)

let fold_between t ~t0 ~t1 ~init ~f =
  fold t ~init ~f:(fun acc e ->
      if e.time >= t0 && e.time < t1 then f acc e else acc)

let entries t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

let pp ppf t =
  Format.fprintf ppf "@[<v>%d events (%d dropped)@," (length t) (dropped t);
  iter t ~f:(fun e ->
      Format.fprintf ppf "%.6f %a@," e.time Event.pp e.event);
  Format.fprintf ppf "@]"
