(* Dense-handle metrics registry.  Registration (cold) hands out int
   indexes into flat parallel arrays; the hot operations — [incr],
   [add], [set_gauge], [incr_gauge], [observe] — are single array
   stores and allocate nothing.  Gauges live in a [float array] so the
   stores stay unboxed; histograms are streaming log-bucket sketches
   from [Midrr_stats.Log_histogram].  Registries with overlapping names
   merge by name ([merge_into]), the aggregation step for per-shard
   instances. *)

module Log_histogram = Midrr_stats.Log_histogram

type counter = int
type gauge = int
type histogram = int

type t = {
  mutable cnames : string array;
  mutable cvals : int array;
  mutable n_counters : int;
  mutable gnames : string array;
  mutable gvals : float array;
  mutable n_gauges : int;
  mutable hnames : string array;
  mutable hists : Log_histogram.t array; (* [||] until first histogram *)
  mutable n_hists : int;
}

let create () =
  {
    cnames = Array.make 8 "";
    cvals = Array.make 8 0;
    n_counters = 0;
    gnames = Array.make 8 "";
    gvals = Array.make 8 0.0;
    n_gauges = 0;
    hnames = Array.make 8 "";
    hists = [||];
    n_hists = 0;
  }

(* Linear scan: registration is cold and registries are small.  The
   registration functions below run once per metric name, never per
   event, so R7 allows them and what they call. *)
let find names n name =
  let r = ref (-1) in
  (try
     for i = 0 to n - 1 do
       if String.equal names.(i) name then begin
         r := i;
         raise Exit
       end
     done
   with Exit -> ());
  !r

(* --- counters ------------------------------------------------------------ *)

let counter t name =
  match find t.cnames t.n_counters name with
  | i when i >= 0 -> i
  | _ ->
      if Int.equal t.n_counters (Array.length t.cnames) then begin
        let cap = 2 * t.n_counters in
        let cnames = Array.make cap "" in
        let cvals = Array.make cap 0 in
        Array.blit t.cnames 0 cnames 0 t.n_counters;
        Array.blit t.cvals 0 cvals 0 t.n_counters;
        t.cnames <- cnames;
        t.cvals <- cvals
      end;
      let h = t.n_counters in
      t.cnames.(h) <- name;
      t.cvals.(h) <- 0;
      t.n_counters <- h + 1;
      h
[@@midrr.lint.allow "R7"]

let incr t c = t.cvals.(c) <- t.cvals.(c) + 1
let add t c n = t.cvals.(c) <- t.cvals.(c) + n
let counter_value t c = t.cvals.(c)

(* --- gauges -------------------------------------------------------------- *)

let gauge t name =
  match find t.gnames t.n_gauges name with
  | i when i >= 0 -> i
  | _ ->
      if Int.equal t.n_gauges (Array.length t.gnames) then begin
        let cap = 2 * t.n_gauges in
        let gnames = Array.make cap "" in
        let gvals = Array.make cap 0.0 in
        Array.blit t.gnames 0 gnames 0 t.n_gauges;
        Array.blit t.gvals 0 gvals 0 t.n_gauges;
        t.gnames <- gnames;
        t.gvals <- gvals
      end;
      let h = t.n_gauges in
      t.gnames.(h) <- name;
      t.gvals.(h) <- 0.0;
      t.n_gauges <- h + 1;
      h
[@@midrr.lint.allow "R7"]

let set_gauge t g v = t.gvals.(g) <- v
let incr_gauge t g d = t.gvals.(g) <- t.gvals.(g) +. d
let gauge_value t g = t.gvals.(g)

(* --- histograms ---------------------------------------------------------- *)

let default_lo = 1e-9
let default_gamma = 1.05

(* enough buckets for [default_lo, 1e6) at gamma = 1.05 *)
let default_bins =
  int_of_float (Float.ceil (log (1e6 /. default_lo) /. log default_gamma))

let histogram ?(lo = default_lo) ?(gamma = default_gamma) ?(bins = default_bins)
    t name =
  match find t.hnames t.n_hists name with
  | i when i >= 0 -> i
  | _ ->
      let hist = Log_histogram.create ~lo ~gamma ~bins in
      if Int.equal t.n_hists (Array.length t.hists) then begin
        let cap = Stdlib.max 8 (2 * t.n_hists) in
        let hnames = Array.make cap "" in
        let hists = Array.make cap hist in
        Array.blit t.hnames 0 hnames 0 t.n_hists;
        Array.blit t.hists 0 hists 0 t.n_hists;
        t.hnames <- hnames;
        t.hists <- hists
      end;
      let h = t.n_hists in
      t.hnames.(h) <- name;
      t.hists.(h) <- hist;
      t.n_hists <- h + 1;
      h
[@@midrr.lint.allow "R7"]

let observe t h v = Log_histogram.observe t.hists.(h) v
let observe_ns t h ns = Log_histogram.observe_ns t.hists.(h) ns
let hist t h = t.hists.(h)

(* --- snapshot / merge ---------------------------------------------------- *)

let counters t =
  List.init t.n_counters (fun i -> (t.cnames.(i), t.cvals.(i)))

let gauges t = List.init t.n_gauges (fun i -> (t.gnames.(i), t.gvals.(i)))
let histograms t = List.init t.n_hists (fun i -> (t.hnames.(i), t.hists.(i)))

let merge_into ~src ~dst =
  for i = 0 to src.n_counters - 1 do
    let h = counter dst src.cnames.(i) in
    add dst h src.cvals.(i)
  done;
  for i = 0 to src.n_gauges - 1 do
    let h = gauge dst src.gnames.(i) in
    incr_gauge dst h src.gvals.(i)
  done;
  for i = 0 to src.n_hists - 1 do
    let s = src.hists.(i) in
    let h =
      histogram dst src.hnames.(i) ~lo:(Log_histogram.lo s)
        ~gamma:(Log_histogram.gamma s) ~bins:(Log_histogram.bins s)
    in
    Log_histogram.merge_into ~src:s ~dst:dst.hists.(h)
  done
