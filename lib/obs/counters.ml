type kind = Serves | Completes

(* Cells are keyed by a single int packing (flow, iface) — flow in the
   high bits, iface in the low 31 — instead of an [(int * int)] tuple.
   An int key means [add] hashes an immediate and updates the bucket in
   place: no tuple allocation per tallied event.  Flow and interface ids
   are non-negative engine invariants, so the packing is lossless. *)
type t = { kind : kind; cells : (int, int) Hashtbl.t }

let iface_bits = 31

let key ~flow ~iface = (flow lsl iface_bits) lor iface

let key_flow k = k asr iface_bits

let key_iface k = k land ((1 lsl iface_bits) - 1)

let create ?(kind = Completes) () = { kind; cells = Hashtbl.create 64 }

let add t ~flow ~iface ~bytes =
  let k = key ~flow ~iface in
  let prev = match Hashtbl.find t.cells k with v -> v | exception Not_found -> 0 in
  Hashtbl.replace t.cells k (prev + bytes)

let sink t : Sink.t =
 fun ~time:_ ev ->
  match (t.kind, ev.kind) with
  | Serves, Serve | Completes, Complete ->
      add t ~flow:ev.flow ~iface:ev.iface ~bytes:ev.bytes
  | _ -> ()

let cell t ~flow ~iface =
  match Hashtbl.find t.cells (key ~flow ~iface) with
  | v -> v
  | exception Not_found -> 0

let flow_total t f =
  Hashtbl.fold
    (fun k v acc -> if Int.equal (key_flow k) f then acc + v else acc)
    t.cells 0

let iface_total t j =
  Hashtbl.fold
    (fun k v acc -> if Int.equal (key_iface k) j then acc + v else acc)
    t.cells 0

let grand_total t = Hashtbl.fold (fun _ v acc -> acc + v) t.cells 0

let cells t =
  Hashtbl.fold (fun k v acc -> ((key_flow k, key_iface k), v) :: acc) t.cells []
  |> List.sort (fun ((fa, ja), _) ((fb, jb), _) ->
         match Int.compare fa fb with 0 -> Int.compare ja jb | c -> c)

let copy t = { kind = t.kind; cells = Hashtbl.copy t.cells }

let since cur base ~flow ~iface =
  cell cur ~flow ~iface - cell base ~flow ~iface

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun ((f, j), v) -> Format.fprintf ppf "flow=%d iface=%d %dB@," f j v)
    (cells t);
  Format.fprintf ppf "@]"
