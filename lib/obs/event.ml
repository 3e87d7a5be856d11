type kind =
  | Enqueue
  | Drop
  | Serve
  | Turn
  | Flag_reset
  | Iface_up
  | Iface_down
  | Flow_add
  | Flow_remove
  | Weight_change
  | Complete

type num = { mutable value : float }

type record = {
  mutable kind : kind;
  mutable flow : int;
  mutable iface : int;
  mutable bytes : int;
  num : num;
}

let create () =
  { kind = Iface_up; flow = -1; iface = -1; bytes = -1; num = { value = 0.0 } }

(* Every setter writes all three int fields, so a field the kind does not
   carry never shows a previous event's value. *)
let set r kind ~flow ~iface ~bytes =
  r.kind <- kind;
  r.flow <- flow;
  r.iface <- iface;
  r.bytes <- bytes

let set_enqueue r ~flow ~bytes = set r Enqueue ~flow ~iface:(-1) ~bytes
let set_drop r ~flow ~bytes = set r Drop ~flow ~iface:(-1) ~bytes
let set_serve r ~flow ~iface ~bytes = set r Serve ~flow ~iface ~bytes
let set_turn r ~flow ~iface = set r Turn ~flow ~iface ~bytes:(-1)
let set_flag_reset r ~flow ~iface = set r Flag_reset ~flow ~iface ~bytes:(-1)
let set_iface_up r ~iface = set r Iface_up ~flow:(-1) ~iface ~bytes:(-1)
let set_iface_down r ~iface = set r Iface_down ~flow:(-1) ~iface ~bytes:(-1)
let set_flow_add r ~flow = set r Flow_add ~flow ~iface:(-1) ~bytes:(-1)
let set_flow_remove r ~flow = set r Flow_remove ~flow ~iface:(-1) ~bytes:(-1)

let set_weight_change r ~flow =
  set r Weight_change ~flow ~iface:(-1) ~bytes:(-1)

let set_complete r ~flow ~iface ~bytes = set r Complete ~flow ~iface ~bytes

type t =
  | Enqueue of { flow : int; bytes : int }
  | Drop of { flow : int; bytes : int }
  | Serve of { flow : int; iface : int; bytes : int; deficit : float }
  | Turn of { flow : int; iface : int }
  | Flag_reset of { flow : int; iface : int }
  | Iface_up of { iface : int }
  | Iface_down of { iface : int }
  | Flow_add of { flow : int; weight : float }
  | Flow_remove of { flow : int }
  | Weight_change of { flow : int; weight : float }
  | Complete of { flow : int; iface : int; bytes : int }

let view (kind : kind) ~flow ~iface ~bytes ~value : t =
  match kind with
  | Enqueue -> Enqueue { flow; bytes }
  | Drop -> Drop { flow; bytes }
  | Serve -> Serve { flow; iface; bytes; deficit = value }
  | Turn -> Turn { flow; iface }
  | Flag_reset -> Flag_reset { flow; iface }
  | Iface_up -> Iface_up { iface }
  | Iface_down -> Iface_down { iface }
  | Flow_add -> Flow_add { flow; weight = value }
  | Flow_remove -> Flow_remove { flow }
  | Weight_change -> Weight_change { flow; weight = value }
  | Complete -> Complete { flow; iface; bytes }

let decode r =
  view r.kind ~flow:r.flow ~iface:r.iface ~bytes:r.bytes ~value:r.num.value

let encode r = function
  | Enqueue { flow; bytes } -> set_enqueue r ~flow ~bytes
  | Drop { flow; bytes } -> set_drop r ~flow ~bytes
  | Serve { flow; iface; bytes; deficit } ->
      set_serve r ~flow ~iface ~bytes;
      r.num.value <- deficit
  | Turn { flow; iface } -> set_turn r ~flow ~iface
  | Flag_reset { flow; iface } -> set_flag_reset r ~flow ~iface
  | Iface_up { iface } -> set_iface_up r ~iface
  | Iface_down { iface } -> set_iface_down r ~iface
  | Flow_add { flow; weight } ->
      set_flow_add r ~flow;
      r.num.value <- weight
  | Flow_remove { flow } -> set_flow_remove r ~flow
  | Weight_change { flow; weight } ->
      set_weight_change r ~flow;
      r.num.value <- weight
  | Complete { flow; iface; bytes } -> set_complete r ~flow ~iface ~bytes

let flow = function
  | Enqueue { flow; _ }
  | Drop { flow; _ }
  | Serve { flow; _ }
  | Turn { flow; _ }
  | Flag_reset { flow; _ }
  | Flow_add { flow; _ }
  | Flow_remove { flow }
  | Weight_change { flow; _ }
  | Complete { flow; _ } ->
      Some flow
  | Iface_up _ | Iface_down _ -> None

let iface = function
  | Serve { iface; _ }
  | Turn { iface; _ }
  | Flag_reset { iface; _ }
  | Iface_up { iface }
  | Iface_down { iface }
  | Complete { iface; _ } ->
      Some iface
  | Enqueue _ | Drop _ | Flow_add _ | Flow_remove _ | Weight_change _ -> None

let bytes = function
  | Enqueue { bytes; _ }
  | Drop { bytes; _ }
  | Serve { bytes; _ }
  | Complete { bytes; _ } ->
      Some bytes
  | Turn _ | Flag_reset _ | Iface_up _ | Iface_down _ | Flow_add _
  | Flow_remove _ | Weight_change _ ->
      None

let label = function
  | Enqueue _ -> "enqueue"
  | Drop _ -> "drop"
  | Serve _ -> "serve"
  | Turn _ -> "turn"
  | Flag_reset _ -> "flag_reset"
  | Iface_up _ -> "iface_up"
  | Iface_down _ -> "iface_down"
  | Flow_add _ -> "flow_add"
  | Flow_remove _ -> "flow_remove"
  | Weight_change _ -> "weight_change"
  | Complete _ -> "complete"

let pp ppf ev =
  match ev with
  | Enqueue { flow; bytes } ->
      Format.fprintf ppf "enqueue flow=%d %dB" flow bytes
  | Drop { flow; bytes } -> Format.fprintf ppf "drop flow=%d %dB" flow bytes
  | Serve { flow; iface; bytes; deficit } ->
      Format.fprintf ppf "serve flow=%d iface=%d %dB deficit=%.1f" flow iface
        bytes deficit
  | Turn { flow; iface } -> Format.fprintf ppf "turn flow=%d iface=%d" flow iface
  | Flag_reset { flow; iface } ->
      Format.fprintf ppf "flag_reset flow=%d iface=%d" flow iface
  | Iface_up { iface } -> Format.fprintf ppf "iface_up %d" iface
  | Iface_down { iface } -> Format.fprintf ppf "iface_down %d" iface
  | Flow_add { flow; weight } ->
      Format.fprintf ppf "flow_add %d weight=%g" flow weight
  | Flow_remove { flow } -> Format.fprintf ppf "flow_remove %d" flow
  | Weight_change { flow; weight } ->
      Format.fprintf ppf "weight_change %d weight=%g" flow weight
  | Complete { flow; iface; bytes } ->
      Format.fprintf ppf "complete flow=%d iface=%d %dB" flow iface bytes

module Columns = struct
  type event = t

  (* [kind] has only constant constructors, so its column is an
     immediate array: stores need no write barrier.  [values] is a
     [float array], which OCaml stores flat. *)
  type t = {
    mutable kinds : kind array;
    mutable flows : int array;
    mutable ifaces : int array;
    mutable bytes : int array;
    mutable values : float array;
  }

  let create n =
    if n <= 0 then invalid_arg "Event.Columns.create: n <= 0";
    {
      kinds = Array.make n (Iface_up : kind);
      flows = Array.make n 0;
      ifaces = Array.make n 0;
      bytes = Array.make n 0;
      values = Array.make n 0.0;
    }

  let capacity c = Array.length c.kinds

  let grow c =
    let n = capacity c in
    let widen a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n;
      b
    in
    c.kinds <- widen c.kinds (Iface_up : kind);
    c.flows <- widen c.flows 0;
    c.ifaces <- widen c.ifaces 0;
    c.bytes <- widen c.bytes 0;
    c.values <- widen c.values 0.0

  let store c i (r : record) =
    c.kinds.(i) <- r.kind;
    c.flows.(i) <- r.flow;
    c.ifaces.(i) <- r.iface;
    c.bytes.(i) <- r.bytes;
    c.values.(i) <- r.num.value

  let decode c i : event =
    view c.kinds.(i) ~flow:c.flows.(i) ~iface:c.ifaces.(i) ~bytes:c.bytes.(i)
      ~value:c.values.(i)
end
