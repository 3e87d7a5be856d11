(* The SplitMix64 state lives in 8 bytes rather than a mutable [int64]
   field: storing into an [int64] field boxes a fresh value per draw,
   while [Bytes.set_int64_le] stores it raw.  [bits64] and [float] are
   inlined into the samplers below, and [exponential] into its callers,
   so a draw through them boxes no intermediate [int64] or [float]
   either. *)
type t = bytes

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* SplitMix64 output function: add the golden-ratio increment, then two
   xor-shift-multiply mixing rounds (constants from Steele et al.). *)
let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (bits64 t)

let[@inline] float t =
  (* 53 high-quality bits into the mantissa: uniform on [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t ~bound =
  assert (bound > 0);
  let mask = Int64.of_int (bound - 1) in
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (bits64 t) mask)
  else
    (* Rejection sampling to avoid modulo bias. *)
    let bound64 = Int64.of_int bound in
    let rec draw () =
      let r = Int64.shift_right_logical (bits64 t) 1 in
      let v = Int64.rem r bound64 in
      if Int64.sub r v > Int64.sub Int64.max_int (Int64.sub bound64 1L) then draw ()
      else Int64.to_int v
    in
    draw ()

let int_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t ~bound:(hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t ~p = float t < p

let[@inline] exponential t ~mean =
  assert (mean > 0.);
  let u = 1.0 -. float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let pareto t ~alpha ~x_min =
  assert (alpha > 0. && x_min > 0.);
  let u = 1.0 -. float t in
  x_min /. (u ** (1.0 /. alpha))

let zipf t ~n ~s =
  assert (n > 0);
  let h = Array.make (n + 1) 0.0 in
  for k = 1 to n do
    h.(k) <- h.(k - 1) +. (1.0 /. (Float.of_int k ** s))
  done;
  let target = float t *. h.(n) in
  (* Binary search the first rank whose cumulative mass exceeds [target]. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if h.(mid) >= target then search lo mid else search (mid + 1) hi
  in
  search 1 n

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t ~bound:(Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
