module Rng = Midrr_stats.Rng

let gauss_markov ?(seed = 1) ~mean ~sigma ~memory ~step ~horizon () =
  if not (mean >= 0.0) then invalid_arg "Mobility.gauss_markov: negative mean";
  if not (memory >= 0.0 && memory < 1.0) then
    invalid_arg "Mobility.gauss_markov: memory out of [0, 1)";
  if not (step > 0.0 && horizon > step) then
    invalid_arg "Mobility.gauss_markov: bad step/horizon";
  let rng = Rng.create ~seed in
  let noise_scale = sigma *. sqrt (1.0 -. (memory *. memory)) in
  let rec walk t rate acc =
    if t >= horizon then List.rev acc
    else
      let next =
        (memory *. rate)
        +. ((1.0 -. memory) *. mean)
        +. (noise_scale *. Rng.gaussian rng ~mu:0.0 ~sigma:1.0)
      in
      let next = Float.max 0.0 next in
      walk (t +. step) next ((t +. step, next) :: acc)
  in
  let changes = walk 0.0 mean [] in
  Link.steps ~initial:mean changes

let coverage ?(seed = 1) ~rate_in ~on_mean ~off_mean ~horizon () =
  if not (rate_in > 0.0) then invalid_arg "Mobility.coverage: rate_in <= 0";
  if not (on_mean > 0.0 && off_mean > 0.0) then
    invalid_arg "Mobility.coverage: non-positive period";
  let rng = Rng.create ~seed in
  let rec build t inside acc =
    if t >= horizon then List.rev acc
    else
      let span =
        Rng.exponential rng ~mean:(if inside then on_mean else off_mean)
      in
      let t' = t +. span in
      let next_rate = if inside then 0.0 else rate_in in
      if t' >= horizon then List.rev acc
      else build t' (not inside) ((t', next_rate) :: acc)
  in
  Link.steps ~initial:rate_in (build 0.0 true [])

let mean_rate profile ~horizon ~samples =
  if samples <= 0 then invalid_arg "Mobility.mean_rate: samples <= 0";
  let dt = horizon /. Float.of_int samples in
  let acc = ref 0.0 in
  for i = 0 to samples - 1 do
    acc := !acc +. Link.rate_at profile ((Float.of_int i +. 0.5) *. dt)
  done;
  !acc /. Float.of_int samples
