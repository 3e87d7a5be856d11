(* Cells are keyed by a single int packing (flow, iface) — flow in the
   high bits, iface in the low 31 — instead of an [(int * int)] tuple.
   An int key means [add] hashes an immediate and updates the bucket in
   place: no tuple allocation per tallied event.  The packing is
   injective only while both ids lie in [0, 2^31): a larger interface
   id would alias another flow's cell.  The platforms stay inside that
   range: [Scenario.parse] caps interface ids at 65535. *)
type t = (int, int) Hashtbl.t

let iface_bits = 31

let key ~flow ~iface = (flow lsl iface_bits) lor iface

let create () : t = Hashtbl.create 64

let add t ~flow ~iface ~bytes =
  let k = key ~flow ~iface in
  let prev = match Hashtbl.find t k with v -> v | exception Not_found -> 0 in
  Hashtbl.replace t k (prev + bytes)

let cell t ~flow ~iface =
  match Hashtbl.find t (key ~flow ~iface) with
  | v -> v
  | exception Not_found -> 0

let copy = Hashtbl.copy

let since cur base ~flow ~iface =
  cell cur ~flow ~iface - cell base ~flow ~iface
