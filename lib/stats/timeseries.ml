type t = {
  bin : float;
  mutable bins : int array;
  mutable last : int; (* highest touched bin index, -1 when empty *)
  mutable total : int;
}

let create ~bin =
  if not (bin > 0.0) then invalid_arg "Timeseries.create: bin <= 0";
  { bin; bins = Array.make 64 0; last = -1; total = 0 }

(* Doubling growth: amortized over the bins it adds. *)
let ensure t i =
  let n = Array.length t.bins in
  if i >= n then begin
    let n' = Stdlib.max (i + 1) (2 * n) in
    let bins = (Array.make n' 0 [@midrr.lint.allow "R7"]) in
    Array.blit t.bins 0 bins 0 n;
    t.bins <- bins
  end

let record t ~time ~bytes =
  if time < 0.0 then invalid_arg "Timeseries.record: negative time";
  let i = int_of_float (time /. t.bin) in
  ensure t i;
  t.bins.(i) <- t.bins.(i) + bytes;
  t.total <- t.total + bytes;
  if i > t.last then t.last <- i

let n_bins t = t.last + 1

let bytes_in_bin t i =
  if i < 0 then invalid_arg "Timeseries.bytes_in_bin: negative index";
  if i >= Array.length t.bins then 0 else t.bins.(i)

let rate_series ?(unit_scale = 1.0) t =
  Array.init (n_bins t) (fun i ->
      let midpoint = (Float.of_int i +. 0.5) *. t.bin in
      let bits = 8.0 *. Float.of_int t.bins.(i) in
      (midpoint, bits /. t.bin /. unit_scale))

let rate_between ?(unit_scale = 1.0) t ~t0 ~t1 =
  if not (t1 > t0) then invalid_arg "Timeseries.rate_between: empty window";
  let first = int_of_float (t0 /. t.bin) in
  let last = int_of_float ((t1 -. 1e-12) /. t.bin) in
  let bytes = ref 0.0 in
  for i = first to Stdlib.min last (Array.length t.bins - 1) do
    if i >= 0 then begin
      let bin_lo = Float.of_int i *. t.bin in
      let bin_hi = bin_lo +. t.bin in
      let overlap = Float.min t1 bin_hi -. Float.max t0 bin_lo in
      let frac = Float.max 0.0 overlap /. t.bin in
      bytes := !bytes +. (frac *. Float.of_int t.bins.(i))
    end
  done;
  8.0 *. !bytes /. (t1 -. t0) /. unit_scale

let total_bytes t = t.total
