type t = { n : int64; d : int64 }

exception Overflow

let rec gcd64 a b = if b = 0L then a else gcd64 b (Int64.rem a b)

let abs64 x =
  if x = Int64.min_int then raise Overflow else Int64.abs x

(* Overflow-checked primitives. *)
let mul64 a b =
  if a = 0L || b = 0L then 0L
  else
    let r = Int64.mul a b in
    if Int64.div r b <> a then raise Overflow else r

let add64 a b =
  let r = Int64.add a b in
  (* Overflow iff operands share a sign and the result flips it. *)
  if (a >= 0L && b >= 0L && r < 0L) || (a < 0L && b < 0L && r >= 0L) then
    raise Overflow
  else r

let normalize n d =
  if d = 0L then raise Division_by_zero;
  let sign = if d < 0L then -1L else 1L in
  let n = mul64 n sign and d = mul64 d sign in
  let g = gcd64 (abs64 n) d in
  if g = 0L then { n = 0L; d = 1L } else { n = Int64.div n g; d = Int64.div d g }

let make n d = normalize n d

let of_int i = { n = Int64.of_int i; d = 1L }

let zero = { n = 0L; d = 1L }

let add a b = normalize (add64 (mul64 a.n b.d) (mul64 b.n a.d)) (mul64 a.d b.d)
let sub a b = normalize (add64 (mul64 a.n b.d) (Int64.neg (mul64 b.n a.d))) (mul64 a.d b.d)
let mul a b = normalize (mul64 a.n b.n) (mul64 a.d b.d)

let div a b =
  if b.n = 0L then raise Division_by_zero;
  normalize (mul64 a.n b.d) (mul64 a.d b.n)

let neg a = { a with n = Int64.neg a.n }

let compare a b =
  (* Compare via subtraction to stay exact; overflow surfaces as the
     exception rather than a wrong answer. *)
  Int64.compare (mul64 a.n b.d) (mul64 b.n a.d)

let equal a b = compare a b = 0
let sign t = Int64.compare t.n 0L

let to_float t = Int64.to_float t.n /. Int64.to_float t.d

let max_den = 1_000_000L

let of_float_approx x =
  if Float.is_nan x || not (Float.is_finite x) then
    invalid_arg "Rat.of_float_approx: not finite";
  if Float.is_integer x then normalize (Int64.of_float x) 1L
  else begin
    (* Continued-fraction expansion with convergent denominators capped at
       [max_den]. *)
    let negative = x < 0.0 in
    let x = Float.abs x in
    let rec go value (h0, k0) (h1, k1) steps =
      if steps = 0 then (h1, k1)
      else
        let a = Int64.of_float (Float.floor value) in
        let h2 = add64 (mul64 a h1) h0 and k2 = add64 (mul64 a k1) k0 in
        if k2 > max_den then (h1, k1)
        else
          let frac = value -. Float.floor value in
          if frac < 1e-12 then (h2, k2)
          else go (1.0 /. frac) (h1, k1) (h2, k2) (steps - 1)
    in
    (* Convergent recurrence p_k = a_k p_{k-1} + p_{k-2}, seeded with
       p_{-2}/q_{-2} = 0/1 and p_{-1}/q_{-1} = 1/0. *)
    let h, k = go x (0L, 1L) (1L, 0L) 40 in
    let r = if k = 0L then normalize (Int64.of_float (Float.round x)) 1L else normalize h k in
    if negative then neg r else r
  end

let pp ppf t =
  if t.d = 1L then Format.fprintf ppf "%Ld" t.n
  else Format.fprintf ppf "%Ld/%Ld" t.n t.d
