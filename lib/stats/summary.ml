let total xs =
  (* Kahan summation: the compensation term recovers low-order bits that a
     naive running sum would discard. *)
  let sum = ref 0.0 and comp = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !sum +. y in
      comp := t -. !sum -. y;
      sum := t)
    xs;
  !sum

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else total xs /. Float.of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then Float.nan
  else
    let m = mean xs in
    let acc = Array.map (fun x -> (x -. m) *. (x -. m)) xs in
    total acc /. Float.of_int (n - 1)

let stddev xs = sqrt (variance xs)

let percentile_sorted sorted ~p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else if n = 1 then sorted.(0)
  else begin
    assert (p >= 0.0 && p <= 100.0);
    let rank = p /. 100.0 *. Float.of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. Float.of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let percentile xs ~p =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted ~p

let median xs = percentile xs ~p:50.0

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let s = total xs in
    let sq = total (Array.map (fun x -> x *. x) xs) in
    (* Exact zero is the intended guard: sq = 0 iff every sample is 0. *)
    if ((sq = 0.0) [@midrr.lint.allow "R3"]) then Float.nan
    else s *. s /. (Float.of_int n *. sq)

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max : float;
}

let describe xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let pct p = percentile_sorted sorted ~p in
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = (if Array.length sorted = 0 then Float.nan else sorted.(0));
    p25 = pct 25.0;
    median = pct 50.0;
    p75 = pct 75.0;
    p90 = pct 90.0;
    p99 = pct 99.0;
    p999 = pct 99.9;
    max =
      (if Array.length sorted = 0 then Float.nan
       else sorted.(Array.length sorted - 1));
  }
