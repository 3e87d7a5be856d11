module Recorder = Midrr_obs.Recorder

type event = {
  time : float;
  iface : Midrr_core.Types.iface_id;
  flow : Midrr_core.Types.flow_id;
  bytes : int;
}

type t = { ring : Recorder.t; ev : Midrr_obs.Event.record }

let create ?(capacity = 65536) () =
  { ring = Recorder.create ~capacity (); ev = Midrr_obs.Event.create () }

let record t (e : event) =
  Midrr_obs.Event.set_complete t.ev ~flow:e.flow ~iface:e.iface ~bytes:e.bytes;
  Recorder.record t.ring ~time:e.time t.ev

let attach t sim =
  Netsim.on_complete sim (fun ~time ~iface pkt ->
      record t { time; iface; flow = pkt.Midrr_core.Packet.flow; bytes = pkt.size })

let length t = Recorder.length t.ring
let dropped t = Recorder.dropped t.ring

(* Everything below folds directly over the ring buffer: no intermediate
   event list is built, whatever the buffer size. *)

let of_entry (e : Recorder.entry) =
  match e.event with
  | Midrr_obs.Event.Complete { flow; iface; bytes } ->
      Some { time = e.time; iface; flow; bytes }
  | _ -> None

let fold t ~init ~f =
  Recorder.fold t.ring ~init ~f:(fun acc e ->
      match of_entry e with Some ev -> f acc ev | None -> acc)

let events t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

let between t ~t0 ~t1 =
  List.rev
    (fold t ~init:[] ~f:(fun acc e ->
         if e.time >= t0 && e.time < t1 then e :: acc else acc))

let tally key_of t =
  let acc = Hashtbl.create 16 in
  fold t ~init:() ~f:(fun () e ->
      let k = key_of e in
      Hashtbl.replace acc k
        (e.bytes + Option.value (Hashtbl.find_opt acc k) ~default:0));
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let bytes_per_flow t = tally (fun e -> e.flow) t

let bytes_per_iface t = tally (fun e -> e.iface) t

let interleaving t ~iface =
  fold t ~init:[] ~f:(fun acc e ->
      if e.iface <> iface then acc
      else
        match acc with
        | prev :: _ when prev = e.flow -> acc
        | _ -> e.flow :: acc)
  |> List.rev

let to_csv t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "time,iface,flow,bytes\n";
      fold t ~init:() ~f:(fun () e ->
          Printf.fprintf oc "%.9f,%d,%d,%d\n" e.time e.iface e.flow e.bytes))

let pp ppf t =
  Format.fprintf ppf "@[<v>%d events (%d dropped)@," (length t) (dropped t);
  fold t ~init:() ~f:(fun () e ->
      Format.fprintf ppf "%.6f iface=%d flow=%d %dB@," e.time e.iface e.flow
        e.bytes);
  Format.fprintf ppf "@]"
