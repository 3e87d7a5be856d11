type flow_id = int
type iface_id = int

let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> Int.compare a b < 0 && strictly_ascending rest
  | [] | [ _ ] -> true

let canonical allowed =
  if strictly_ascending allowed then allowed
  else List.sort_uniq Int.compare allowed

let rec mem_sorted j = function
  | [] -> false
  | x :: rest -> if x < j then mem_sorted j rest else Int.equal x j

let mbps x = x *. 1e6
let kbps x = x *. 1e3
let to_mbps x = x /. 1e6

(* Inlined so that the simulators' per-transmission call returns its
   float unboxed: out of line, the result is boxed on every call. *)
let[@inline] tx_time ~bytes ~rate =
  if rate <= 0.0 then invalid_arg "Types.tx_time: non-positive rate";
  8.0 *. Float.of_int bytes /. rate
