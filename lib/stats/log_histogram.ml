(* HDR-style log-bucketed streaming histogram.  Bucket [i] covers the
   half-open interval [lo * gamma^i, lo * gamma^(i+1)); the index of a
   value is a log, a multiply and a truncation, so [observe] touches
   only preallocated int/float arrays and allocates nothing.  The
   boxed-float accumulators (sum / min / max) live in a 3-slot float
   array because OCaml stores float arrays unboxed: mutating a [float]
   record field would box a fresh float per observation. *)

let s_sum = 0
let s_max = 1
let s_min = 2

type t = {
  lo : float;
  gamma : float;
  log_lo : float;
  inv_log_gamma : float;
  counts : int array;
  stats : float array; (* [| sum; max; min |], unboxed *)
  mutable underflow : int; (* observations in [0, lo) and negatives *)
  mutable overflow : int;
  mutable nan : int; (* explicit cell: NaN is neither under- nor overflow *)
  mutable total : int; (* numeric observations (excludes [nan]) *)
}

let create ~lo ~gamma ~bins =
  if not (lo > 0.0) then invalid_arg "Log_histogram.create: lo <= 0";
  if not (gamma > 1.0) then invalid_arg "Log_histogram.create: gamma <= 1";
  if bins <= 0 then invalid_arg "Log_histogram.create: bins <= 0";
  {
    lo;
    gamma;
    log_lo = log lo;
    inv_log_gamma = 1.0 /. log gamma;
    counts = Array.make bins 0;
    stats = [| 0.0; Float.neg_infinity; Float.infinity |];
    underflow = 0;
    overflow = 0;
    nan = 0;
    total = 0;
  }

let create_range ~lo ~hi ~rel_error =
  if not (lo > 0.0 && hi > lo) then
    invalid_arg "Log_histogram.create_range: need 0 < lo < hi";
  if not (rel_error > 0.0) then
    invalid_arg "Log_histogram.create_range: rel_error <= 0";
  let gamma = 1.0 +. rel_error in
  let bins =
    int_of_float (Float.ceil (log (hi /. lo) /. log gamma)) |> Stdlib.max 1
  in
  create ~lo ~gamma ~bins

let observe t v =
  if Float.is_nan v then t.nan <- t.nan + 1
  else begin
    t.total <- t.total + 1;
    t.stats.(s_sum) <- t.stats.(s_sum) +. v;
    if v > t.stats.(s_max) then t.stats.(s_max) <- v;
    if v < t.stats.(s_min) then t.stats.(s_min) <- v;
    if v < t.lo then t.underflow <- t.underflow + 1
    else begin
      let i = int_of_float ((log v -. t.log_lo) *. t.inv_log_gamma) in
      if i >= Array.length t.counts then t.overflow <- t.overflow + 1
      else t.counts.(i) <- t.counts.(i) + 1
    end
  end

(* [observe t (Float.of_int ns *. 1e-9)], but with an [int] argument.
   The compiler (classic mode, no flambda) boxes float arguments at
   every function call, so a caller that *computes* a duration cannot
   reach [observe] allocation-free; an int crosses the boundary for
   free and the conversion below stays a local unboxed float.  The
   body duplicates [observe]'s numeric branch on purpose: delegating
   would reintroduce the boxed call. *)
let observe_ns t ns =
  let v = Float.of_int ns *. 1e-9 in
  t.total <- t.total + 1;
  t.stats.(s_sum) <- t.stats.(s_sum) +. v;
  if v > t.stats.(s_max) then t.stats.(s_max) <- v;
  if v < t.stats.(s_min) then t.stats.(s_min) <- v;
  if v < t.lo then t.underflow <- t.underflow + 1
  else begin
    let i = int_of_float ((log v -. t.log_lo) *. t.inv_log_gamma) in
    if i >= Array.length t.counts then t.overflow <- t.overflow + 1
    else t.counts.(i) <- t.counts.(i) + 1
  end

let count t = t.total
let nan_count t = t.nan
let underflow t = t.underflow
let overflow t = t.overflow
let sum t = t.stats.(s_sum)
let max_value t = if Int.equal t.total 0 then Float.nan else t.stats.(s_max)
let min_value t = if Int.equal t.total 0 then Float.nan else t.stats.(s_min)

let mean t =
  if Int.equal t.total 0 then Float.nan
  else t.stats.(s_sum) /. Float.of_int t.total

let bins t = Array.length t.counts

let bucket_count t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Log_histogram.bucket_count: index out of range";
  t.counts.(i)

(* Quantiles report the *upper* edge of the bucket holding the rank,
   clamped by the exact running max: the estimate is never below the
   true quantile (bound harnesses stay sound) and never above the true
   maximum.  Underflow ranks report [lo]; overflow ranks report the
   exact max. *)
let quantile t ~q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Log_histogram.quantile: q outside [0, 1]";
  if Int.equal t.total 0 then Float.nan
  else begin
    let rank =
      Stdlib.max 1
        (Stdlib.min t.total
           (int_of_float (Float.ceil (q *. Float.of_int t.total))))
    in
    let mx = t.stats.(s_max) in
    if rank <= t.underflow then Float.min t.lo mx
    else begin
      let acc = ref t.underflow in
      let result = ref mx (* overflow region: exact max *) in
      (try
         for i = 0 to Array.length t.counts - 1 do
           acc := !acc + t.counts.(i);
           if rank <= !acc then begin
             result :=
               Float.min (t.lo *. (t.gamma ** Float.of_int (i + 1))) mx;
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
  end

let same_geometry a b =
  Float.equal a.lo b.lo && Float.equal a.gamma b.gamma
  && Int.equal (Array.length a.counts) (Array.length b.counts)

let merge_into ~src ~dst =
  if not (same_geometry src dst) then
    invalid_arg "Log_histogram.merge_into: geometry mismatch";
  for i = 0 to Array.length src.counts - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.underflow <- dst.underflow + src.underflow;
  dst.overflow <- dst.overflow + src.overflow;
  dst.nan <- dst.nan + src.nan;
  dst.total <- dst.total + src.total;
  dst.stats.(s_sum) <- dst.stats.(s_sum) +. src.stats.(s_sum);
  if src.stats.(s_max) > dst.stats.(s_max) then
    dst.stats.(s_max) <- src.stats.(s_max);
  if src.stats.(s_min) < dst.stats.(s_min) then
    dst.stats.(s_min) <- src.stats.(s_min)

let copy t =
  {
    t with
    counts = Array.copy t.counts;
    stats = Array.copy t.stats;
  }

let lo t = t.lo
let gamma t = t.gamma
