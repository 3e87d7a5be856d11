(* Unit tests for the statistics substrate. *)

module Rng = Midrr_stats.Rng
module Summary = Midrr_stats.Summary
module Cdf = Midrr_stats.Cdf
module Timeseries = Midrr_stats.Timeseries

let close ?(tol = 1e-9) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.6g, got %.6g" what expected got

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* Known answers.  Seed 0 gives the SplitMix64 reference outputs; the
   [split] and [copy] streams and the float samples were recorded from
   the generator when it kept its state in an [int64] field, so a change
   of representation cannot move any seeded simulation. *)
let test_rng_known_answers () =
  let check what want got = Alcotest.(check int64) what want got in
  let r = Rng.create ~seed:0 in
  check "seed 0, 1st" 0xe220a8397b1dcdafL (Rng.bits64 r);
  check "seed 0, 2nd" 0x6e789e6aa1b965f4L (Rng.bits64 r);
  check "seed 0, 3rd" 0x06c45d188009454fL (Rng.bits64 r);
  let parent = Rng.create ~seed:0 in
  let child = Rng.split parent in
  check "split child, 1st" 0xa706dd2f4d197e6fL (Rng.bits64 child);
  check "split child, 2nd" 0xb382a305f4414f5eL (Rng.bits64 child);
  check "split child, 3rd" 0x631a9154fbabf717L (Rng.bits64 child);
  check "parent after split" 0x6e789e6aa1b965f4L (Rng.bits64 parent);
  let a = Rng.create ~seed:42 in
  ignore (Rng.bits64 a : int64);
  let b = Rng.copy a in
  check "copy" 0x28efe333b266f103L (Rng.bits64 b);
  check "original after copy" 0x28efe333b266f103L (Rng.bits64 a);
  check "copy, next" 0x47526757130f9f52L (Rng.bits64 b);
  check "negative seed" 0x16b1cba95fc60262L
    (Rng.bits64 (Rng.create ~seed:(-5)));
  let r = Rng.create ~seed:7 in
  let hex = Printf.sprintf "%h" in
  Alcotest.(check string) "float" "0x1.8f2f879164c82p-2" (hex (Rng.float r));
  Alcotest.(check string) "exponential" "0x1.1564fc853fd13p-5"
    (hex (Rng.exponential r ~mean:2.0))

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_rng_float_range () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 10000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:9 in
  let seen = Array.make 10 false in
  for _ = 1 to 10000 do
    let x = Rng.int rng ~bound:10 in
    if x < 0 || x >= 10 then Alcotest.failf "int out of range: %d" x;
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:3 in
  let n = 200000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:5.0
  done;
  close ~tol:0.1 "exponential mean" 5.0 (!sum /. Float.of_int n)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:4 in
  let n = 200000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mu:2.0 ~sigma:3.0) in
  close ~tol:0.05 "gaussian mean" 2.0 (Summary.mean xs);
  close ~tol:0.05 "gaussian sd" 3.0 (Summary.stddev xs)

let test_rng_pareto_support () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10000 do
    let x = Rng.pareto rng ~alpha:2.0 ~x_min:1.5 in
    if x < 1.5 then Alcotest.failf "pareto below x_min: %f" x
  done

let test_rng_zipf_rank1_most_common () =
  let rng = Rng.create ~seed:6 in
  let counts = Array.make 11 0 in
  for _ = 1 to 20000 do
    let r = Rng.zipf rng ~n:10 ~s:1.2 in
    if r < 1 || r > 10 then Alcotest.failf "zipf out of range: %d" r;
    counts.(r) <- counts.(r) + 1
  done;
  for r = 2 to 10 do
    if counts.(1) <= counts.(r) then
      Alcotest.failf "rank 1 (%d) not more common than rank %d (%d)"
        counts.(1) r counts.(r)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:8 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let parent = Rng.create ~seed:10 in
  let child = Rng.split parent in
  (* The child stream should not replay the parent stream. *)
  let p = Array.init 32 (fun _ -> Rng.bits64 parent) in
  let c = Array.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "different streams" false (p = c)

(* --- Summary ------------------------------------------------------------ *)

let test_summary_basic () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  close "mean" 5.0 (Summary.mean xs);
  close ~tol:1e-4 "stddev" 2.13809 (Summary.stddev xs);
  close "min" 2.0 (Summary.min xs);
  close "max" 9.0 (Summary.max xs);
  close "median" 4.5 (Summary.median xs)

let test_summary_percentile_interpolation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  close "p0" 1.0 (Summary.percentile xs ~p:0.0);
  close "p100" 4.0 (Summary.percentile xs ~p:100.0);
  close "p50" 2.5 (Summary.percentile xs ~p:50.0);
  close "p25" 1.75 (Summary.percentile xs ~p:25.0)

let test_summary_empty_nan () =
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Summary.mean [||]));
  Alcotest.(check bool)
    "percentile nan" true
    (Float.is_nan (Summary.percentile [||] ~p:50.0))

let test_summary_kahan () =
  (* Large base plus many tiny increments: naive summation loses them. *)
  let xs = Array.make 10001 1e-8 in
  xs.(0) <- 1e8;
  close ~tol:1e-6 "kahan total" (1e8 +. 1e-4) (Summary.total xs)

let test_jain_index () =
  close "equal allocations" 1.0 (Summary.jain_index [| 3.0; 3.0; 3.0 |]);
  close "one hog" (1.0 /. 3.0) (Summary.jain_index [| 9.0; 0.0; 0.0 |]);
  close "weighted equal" 1.0
    (Summary.weighted_jain_index ~rates:[| 2.0; 4.0 |] ~weights:[| 1.0; 2.0 |])

let test_describe_consistency () =
  let rng = Rng.create ~seed:12 in
  let xs = Array.init 1000 (fun _ -> Rng.float rng) in
  let d = Summary.describe xs in
  Alcotest.(check int) "count" 1000 d.count;
  if not (d.min <= d.p25 && d.p25 <= d.median && d.median <= d.p75) then
    Alcotest.fail "quartiles out of order";
  if not (d.p75 <= d.p90 && d.p90 <= d.p99 && d.p99 <= d.max) then
    Alcotest.fail "upper tail out of order";
  if not (d.p99 <= d.p999 && d.p999 <= d.max) then
    Alcotest.fail "p999 out of order"

let test_percentile_edge_cases () =
  (* Single sample: every percentile is that sample. *)
  let one = [| 7.5 |] in
  close "single p0" 7.5 (Summary.percentile one ~p:0.0);
  close "single p50" 7.5 (Summary.percentile one ~p:50.0);
  close "single p100" 7.5 (Summary.percentile one ~p:100.0);
  (* p=0 and p=100 hit min and max exactly, no interpolation artifacts. *)
  let xs = [| 9.0; 1.0; 5.0; 3.0; 7.0 |] in
  close "p0 is min" 1.0 (Summary.percentile xs ~p:0.0);
  close "p100 is max" 9.0 (Summary.percentile xs ~p:100.0);
  (* Duplicate-heavy: the tail percentiles sit on the plateau until the
     very end of the rank range. *)
  let dup = Array.make 1000 2.0 in
  dup.(999) <- 50.0;
  close "duplicates p50" 2.0 (Summary.percentile dup ~p:50.0);
  close "duplicates p99" 2.0 (Summary.percentile dup ~p:99.0);
  let p999 = Summary.percentile dup ~p:99.9 in
  if not (p999 >= 2.0 && p999 <= 50.0) then
    Alcotest.failf "duplicates p999 %.3f out of range" p999;
  close "duplicates p100" 50.0 (Summary.percentile dup ~p:100.0)

let test_describe_p999 () =
  (* 10000 zeros with ten outliers: p99.9 lands at the outlier knee. *)
  let xs = Array.make 10000 0.0 in
  for i = 9990 to 9999 do
    xs.(i) <- 1.0
  done;
  let d = Summary.describe xs in
  close "p99 on the floor" 0.0 d.p99;
  if not (d.p999 > 0.0 && d.p999 <= 1.0) then
    Alcotest.failf "p999 %.4f should sit at the outlier knee" d.p999;
  close "max" 1.0 d.max;
  (* The empty and singleton summaries stay well-defined. *)
  Alcotest.(check bool)
    "empty p999 nan" true
    (Float.is_nan (Summary.describe [||]).p999);
  close "singleton p999" 3.0 (Summary.describe [| 3.0 |]).p999

(* --- Cdf ---------------------------------------------------------------- *)

let test_cdf_eval () =
  let c = Cdf.of_samples [| 1.0; 2.0; 2.0; 4.0 |] in
  close "below support" 0.0 (Cdf.eval c 0.5);
  close "at 1" 0.25 (Cdf.eval c 1.0);
  close "at 2" 0.75 (Cdf.eval c 2.0);
  close "between" 0.75 (Cdf.eval c 3.0);
  close "at max" 1.0 (Cdf.eval c 4.0);
  close "beyond" 1.0 (Cdf.eval c 100.0)

let test_cdf_quantile () =
  let c = Cdf.of_samples [| 1.0; 2.0; 3.0; 4.0 |] in
  close "q=0.25" 1.0 (Cdf.quantile c ~q:0.25);
  close "q=0.5" 2.0 (Cdf.quantile c ~q:0.5);
  close "q=1" 4.0 (Cdf.quantile c ~q:1.0)

let test_cdf_quantile_edge_cases () =
  (* Extremes of q hit the support's ends. *)
  let c = Cdf.of_samples [| 1.0; 2.0; 3.0; 4.0 |] in
  close "q=0 is min" 1.0 (Cdf.quantile c ~q:0.0);
  close "q just under 1" 4.0 (Cdf.quantile c ~q:0.9999);
  (* Single sample: constant quantile function. *)
  let one = Cdf.of_samples [| 6.25 |] in
  close "singleton q=0" 6.25 (Cdf.quantile one ~q:0.0);
  close "singleton q=0.5" 6.25 (Cdf.quantile one ~q:0.5);
  close "singleton q=1" 6.25 (Cdf.quantile one ~q:1.0);
  (* Duplicate-heavy support: the plateau owns every quantile up to its
     cumulative mass, the outlier only the very top. *)
  let dup = Cdf.of_samples [| 2.0; 2.0; 2.0; 2.0; 2.0; 2.0; 2.0; 9.0 |] in
  close "plateau q=0.5" 2.0 (Cdf.quantile dup ~q:0.5);
  close "plateau q=0.875" 2.0 (Cdf.quantile dup ~q:0.875);
  close "outlier q=0.9" 9.0 (Cdf.quantile dup ~q:0.9);
  close "outlier q=1" 9.0 (Cdf.quantile dup ~q:1.0)

let test_cdf_weighted () =
  (* 1 with weight 3, 5 with weight 1. *)
  let c = Cdf.of_weighted [ (1.0, 3.0); (5.0, 1.0) ] in
  close "P(X<=1)" 0.75 (Cdf.eval c 1.0);
  close "P(X<=5)" 1.0 (Cdf.eval c 5.0);
  close "complementary" 0.25 (Cdf.complementary c 1.0)

let test_cdf_merges_duplicates () =
  let c = Cdf.of_weighted [ (2.0, 1.0); (2.0, 1.0); (3.0, 2.0) ] in
  Alcotest.(check int) "two distinct values" 2 (Array.length (Cdf.support c));
  close "P(X<=2)" 0.5 (Cdf.eval c 2.0)

let test_cdf_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Cdf.of_samples: empty")
    (fun () -> ignore (Cdf.of_samples [||]));
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Cdf.of_weighted: zero total weight") (fun () ->
      ignore (Cdf.of_weighted [ (1.0, 0.0) ]))

(* --- Timeseries ---------------------------------------------------------- *)

let test_timeseries_binning () =
  let ts = Timeseries.create ~bin:1.0 in
  Timeseries.record ts ~time:0.5 ~bytes:100;
  Timeseries.record ts ~time:0.9 ~bytes:50;
  Timeseries.record ts ~time:2.1 ~bytes:200;
  Alcotest.(check int) "bin 0" 150 (Timeseries.bytes_in_bin ts 0);
  Alcotest.(check int) "bin 1" 0 (Timeseries.bytes_in_bin ts 1);
  Alcotest.(check int) "bin 2" 200 (Timeseries.bytes_in_bin ts 2);
  Alcotest.(check int) "n_bins" 3 (Timeseries.n_bins ts);
  Alcotest.(check int) "total" 350 (Timeseries.total_bytes ts)

let test_timeseries_out_of_order () =
  let ts = Timeseries.create ~bin:1.0 in
  Timeseries.record ts ~time:5.0 ~bytes:10;
  Timeseries.record ts ~time:1.0 ~bytes:20;
  Alcotest.(check int) "bin 1 late write" 20 (Timeseries.bytes_in_bin ts 1);
  Alcotest.(check int) "n_bins tracks max" 6 (Timeseries.n_bins ts)

let test_timeseries_rate_series () =
  let ts = Timeseries.create ~bin:2.0 in
  Timeseries.record ts ~time:1.0 ~bytes:250_000;
  (* 250 kB in a 2 s bin = 1 Mb/s. *)
  let series = Timeseries.rate_series ~unit_scale:1e6 ts in
  Alcotest.(check int) "one bin" 1 (Array.length series);
  let t, rate = series.(0) in
  close "midpoint" 1.0 t;
  close ~tol:1e-9 "rate" 1.0 rate

let test_timeseries_rate_between () =
  let ts = Timeseries.create ~bin:1.0 in
  for i = 0 to 9 do
    Timeseries.record ts ~time:(Float.of_int i +. 0.5) ~bytes:125_000
  done;
  (* 125 kB per 1 s bin = 1 Mb/s everywhere, windows included. *)
  close ~tol:1e-9 "full window" 1.0
    (Timeseries.rate_between ~unit_scale:1e6 ts ~t0:0.0 ~t1:10.0);
  close ~tol:1e-9 "partial window" 1.0
    (Timeseries.rate_between ~unit_scale:1e6 ts ~t0:2.5 ~t1:7.5)

(* --- Log_histogram ------------------------------------------------------- *)

module Log_histogram = Midrr_stats.Log_histogram

let test_loghist_basic () =
  let h = Log_histogram.create_range ~lo:1e-3 ~hi:1e3 ~rel_error:0.05 in
  List.iter (Log_histogram.observe h) [ 0.1; 0.2; 0.4; 0.8 ];
  Alcotest.(check int) "count" 4 (Log_histogram.count h);
  close ~tol:1e-9 "sum" 1.5 (Log_histogram.sum h);
  close ~tol:1e-9 "mean" 0.375 (Log_histogram.mean h);
  close ~tol:1e-9 "min" 0.1 (Log_histogram.min_value h);
  close ~tol:1e-9 "max" 0.8 (Log_histogram.max_value h);
  (* the quantile estimate sits in [true quantile, true quantile * gamma],
     clamped by the exact max *)
  let g = Log_histogram.gamma h in
  let q50 = Log_histogram.quantile h ~q:0.5 in
  if q50 < 0.2 || q50 > (0.2 *. g) +. 1e-9 then
    Alcotest.failf "p50 %.6g outside [0.2, %.6g]" q50 (0.2 *. g);
  close ~tol:1e-9 "p100 is exact max" 0.8 (Log_histogram.quantile h ~q:1.0)

let test_loghist_nan_cell () =
  let h = Log_histogram.create_range ~lo:1e-3 ~hi:1e3 ~rel_error:0.05 in
  Log_histogram.observe h 1.0;
  Log_histogram.observe h Float.nan;
  Log_histogram.observe h Float.nan;
  Alcotest.(check int) "nan cell" 2 (Log_histogram.nan_count h);
  Alcotest.(check int) "numeric count excludes nan" 1 (Log_histogram.count h);
  Alcotest.(check int) "no underflow" 0 (Log_histogram.underflow h);
  Alcotest.(check int) "no overflow" 0 (Log_histogram.overflow h);
  close ~tol:1e-9 "quantiles unaffected" 1.0 (Log_histogram.quantile h ~q:0.5)

let test_loghist_under_overflow () =
  let h = Log_histogram.create_range ~lo:1.0 ~hi:10.0 ~rel_error:0.05 in
  Log_histogram.observe h 0.5;
  Log_histogram.observe h (-3.0);
  Log_histogram.observe h 1e9;
  Alcotest.(check int) "underflow" 2 (Log_histogram.underflow h);
  Alcotest.(check int) "overflow" 1 (Log_histogram.overflow h);
  Alcotest.(check int) "all numeric counted" 3 (Log_histogram.count h);
  (* overflow region reports the exact running max *)
  close ~tol:1e-9 "p100 exact" 1e9 (Log_histogram.quantile h ~q:1.0)

let test_loghist_observe_ns () =
  (* [observe_ns ns] must land in the same bucket as
     [observe (ns * 1e-9)]: same counts, same quantiles. *)
  let a = Log_histogram.create_range ~lo:1e-6 ~hi:1e3 ~rel_error:0.05 in
  let b = Log_histogram.create_range ~lo:1e-6 ~hi:1e3 ~rel_error:0.05 in
  let samples_ns = [ 1_000; 12_345; 1_500_000; 2_000_000_000 ] in
  List.iter
    (fun ns ->
      Log_histogram.observe_ns a ns;
      Log_histogram.observe b (Float.of_int ns *. 1e-9))
    samples_ns;
  Alcotest.(check int) "counts" (Log_histogram.count b) (Log_histogram.count a);
  for i = 0 to Log_histogram.bins a - 1 do
    if Log_histogram.bucket_count a i <> Log_histogram.bucket_count b i then
      Alcotest.failf "bucket %d differs: %d vs %d" i
        (Log_histogram.bucket_count a i)
        (Log_histogram.bucket_count b i)
  done;
  List.iter
    (fun q ->
      close ~tol:1e-12
        (Printf.sprintf "q=%.3f" q)
        (Log_histogram.quantile b ~q)
        (Log_histogram.quantile a ~q))
    [ 0.5; 0.9; 0.99; 1.0 ]

let test_loghist_merge_geometry () =
  let a = Log_histogram.create ~lo:1e-3 ~gamma:1.05 ~bins:100 in
  let b = Log_histogram.create ~lo:1e-3 ~gamma:1.10 ~bins:100 in
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Log_histogram.merge_into: geometry mismatch") (fun () ->
      Log_histogram.merge_into ~src:a ~dst:b)

(* --- Log_histogram properties (qcheck) ----------------------------------- *)

let positive_samples_gen =
  QCheck.Gen.(
    list_size (int_range 1 200) (float_range 1e-5 1e4) >|= Array.of_list)

let positive_samples =
  QCheck.make positive_samples_gen ~print:(fun xs ->
      String.concat ";" (Array.to_list (Array.map string_of_float xs)))

let sketch_of ?(rel_error = 0.05) xs =
  let h = Log_histogram.create_range ~lo:1e-6 ~hi:1e6 ~rel_error in
  Array.iter (Log_histogram.observe h) xs;
  h

let prop_quantile_rel_error =
  QCheck.Test.make ~count:200
    ~name:"sketch quantile within one bucket of exact quantile"
    positive_samples (fun xs ->
      let h = sketch_of xs in
      let c = Cdf.of_samples xs in
      let g = Log_histogram.gamma h in
      List.for_all
        (fun q ->
          let exact = Cdf.quantile c ~q in
          let est = Log_histogram.quantile h ~q in
          est >= exact -. 1e-12 && est <= (exact *. g) +. 1e-12)
        [ 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let prop_merge_associative =
  QCheck.Test.make ~count:200 ~name:"sketch merge is associative"
    (QCheck.triple positive_samples positive_samples positive_samples)
    (fun (xs, ys, zs) ->
      let left =
        (* (a + b) + c *)
        let acc = sketch_of xs in
        Log_histogram.merge_into ~src:(sketch_of ys) ~dst:acc;
        Log_histogram.merge_into ~src:(sketch_of zs) ~dst:acc;
        acc
      in
      let right =
        (* a + (b + c) *)
        let bc = sketch_of ys in
        Log_histogram.merge_into ~src:(sketch_of zs) ~dst:bc;
        let acc = sketch_of xs in
        Log_histogram.merge_into ~src:bc ~dst:acc;
        acc
      in
      let buckets_equal =
        let n = Log_histogram.bins left in
        let rec go i =
          i >= n
          || Log_histogram.bucket_count left i
               = Log_histogram.bucket_count right i
             && go (i + 1)
        in
        go 0
      in
      buckets_equal
      && Log_histogram.count left = Log_histogram.count right
      && Float.abs (Log_histogram.sum left -. Log_histogram.sum right) < 1e-6
      && Float.equal (Log_histogram.max_value left)
           (Log_histogram.max_value right)
      && Float.equal (Log_histogram.min_value left)
           (Log_histogram.min_value right))

let prop_snapshot_idempotent =
  QCheck.Test.make ~count:200
    ~name:"quantile reads do not perturb the sketch" positive_samples
    (fun xs ->
      let h = sketch_of xs in
      let before = Log_histogram.copy h in
      let qs = [ 0.0; 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 ] in
      let first = List.map (fun q -> Log_histogram.quantile h ~q) qs in
      let second = List.map (fun q -> Log_histogram.quantile h ~q) qs in
      List.for_all2 Float.equal first second
      && Log_histogram.same_geometry before h
      && Log_histogram.count before = Log_histogram.count h
      && Float.equal (Log_histogram.sum before) (Log_histogram.sum h))

let () =
  let rand =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> Random.State.make [| int_of_string s |]
    | None -> Random.State.make [| 20130109 |]
  in
  let to_alcotest t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "pareto support" `Quick test_rng_pareto_support;
          Alcotest.test_case "zipf rank order" `Quick
            test_rng_zipf_rank1_most_common;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basic moments" `Quick test_summary_basic;
          Alcotest.test_case "percentile interpolation" `Quick
            test_summary_percentile_interpolation;
          Alcotest.test_case "empty is nan" `Quick test_summary_empty_nan;
          Alcotest.test_case "kahan summation" `Quick test_summary_kahan;
          Alcotest.test_case "jain index" `Quick test_jain_index;
          Alcotest.test_case "describe consistency" `Quick
            test_describe_consistency;
          Alcotest.test_case "percentile edge cases" `Quick
            test_percentile_edge_cases;
          Alcotest.test_case "p999 tail field" `Quick test_describe_p999;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "eval" `Quick test_cdf_eval;
          Alcotest.test_case "quantile" `Quick test_cdf_quantile;
          Alcotest.test_case "quantile edge cases" `Quick
            test_cdf_quantile_edge_cases;
          Alcotest.test_case "weighted" `Quick test_cdf_weighted;
          Alcotest.test_case "merges duplicates" `Quick
            test_cdf_merges_duplicates;
          Alcotest.test_case "rejects empty" `Quick test_cdf_rejects_empty;
        ] );
      ( "log_histogram",
        [
          Alcotest.test_case "basic" `Quick test_loghist_basic;
          Alcotest.test_case "nan cell" `Quick test_loghist_nan_cell;
          Alcotest.test_case "under/overflow" `Quick
            test_loghist_under_overflow;
          Alcotest.test_case "observe_ns equivalence" `Quick
            test_loghist_observe_ns;
          Alcotest.test_case "merge geometry guard" `Quick
            test_loghist_merge_geometry;
        ] );
      ( "log_histogram properties",
        List.map to_alcotest
          [
            prop_quantile_rel_error;
            prop_merge_associative;
            prop_snapshot_idempotent;
          ] );
      ( "timeseries",
        [
          Alcotest.test_case "binning" `Quick test_timeseries_binning;
          Alcotest.test_case "out of order" `Quick test_timeseries_out_of_order;
          Alcotest.test_case "rate series" `Quick test_timeseries_rate_series;
          Alcotest.test_case "rate between" `Quick test_timeseries_rate_between;
        ] );
    ]
