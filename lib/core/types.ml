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
let gbps x = x *. 1e9
let to_mbps x = x /. 1e6
let bytes_to_bits b = 8.0 *. Float.of_int b

(* Inlined so that the simulators' per-transmission call returns its
   float unboxed: out of line, the result is boxed on every call. *)
let[@inline] tx_time ~bytes ~rate =
  if rate <= 0.0 then invalid_arg "Types.tx_time: non-positive rate";
  bytes_to_bits bytes /. rate

let pp_rate ppf r =
  if Float.abs r >= 1e9 then Format.fprintf ppf "%.3g Gb/s" (r /. 1e9)
  else if Float.abs r >= 1e6 then Format.fprintf ppf "%.3g Mb/s" (r /. 1e6)
  else if Float.abs r >= 1e3 then Format.fprintf ppf "%.3g kb/s" (r /. 1e3)
  else Format.fprintf ppf "%.3g b/s" r
