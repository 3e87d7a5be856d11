type t = { flow : Types.flow_id; size : int; arrival : float }

let create ~flow ~size ~arrival =
  if size <= 0 then invalid_arg "Packet.create: size <= 0";
  { flow; size; arrival }

(* Statically allocated sentinel for allocation-free "no packet" paths
   (ring-buffer fillers, [Drr_engine.next_packet_noalloc]).  Identified by
   physical equality; never enqueue or transmit it. *)
let none = { flow = -1; size = 0; arrival = Float.neg_infinity }

let is_none p = p == none

let pp ppf t =
  Format.fprintf ppf "pkt flow=%d %dB @%.6fs" t.flow t.size t.arrival
