module Feq = Midrr_flownet.Feq

(* Segment [i] covers [x_i, x_{i+1}) (the last one [x_i, inf)) with value
   [y_i + s_i * (t - x_i)].  Invariants: at least one segment, x_0 = 0,
   x strictly increasing.  Jumps between segments are permitted (the
   token-bucket jump at 0 lives in y_0), but every operation below
   preserves continuity away from 0. *)
type seg = { x : float; y : float; s : float }
type t = seg array

let check name c =
  let n = Array.length c in
  if n < 1 then invalid_arg (name ^ ": empty curve");
  if Float.abs c.(0).x > 0.0 then invalid_arg (name ^ ": first x <> 0");
  for i = 1 to n - 1 do
    if not (c.(i).x > c.(i - 1).x) then
      invalid_arg (name ^ ": breakpoints not increasing")
  done;
  c

let affine ~burst ~rate =
  if burst < 0.0 || rate < 0.0 then invalid_arg "Curve.affine: negative";
  [| { x = 0.0; y = burst; s = rate } |]

let line ~rate = affine ~burst:0.0 ~rate

let rate_latency ~rate ~latency =
  if rate < 0.0 || latency < 0.0 then
    invalid_arg "Curve.rate_latency: negative";
  if latency > 0.0 then
    [| { x = 0.0; y = 0.0; s = 0.0 }; { x = latency; y = 0.0; s = rate } |]
  else [| { x = 0.0; y = 0.0; s = rate } |]

(* Shared across domains but never mutated: every curve operation
   allocates fresh arrays and no function writes into its inputs. *)
let zero = ([| { x = 0.0; y = 0.0; s = 0.0 } |] [@midrr.lint.allow "R5"])

(* Index of the segment containing [t] (the last one whose start <= t).
   Curves are tiny — a handful of segments — so a linear scan wins. *)
let seg_index c t =
  let n = Array.length c in
  let i = ref 0 in
  while !i + 1 < n && c.(!i + 1).x <= t do incr i done;
  !i

let eval c t =
  if t < 0.0 then 0.0
  else
    let sg = c.(seg_index c t) in
    sg.y +. (sg.s *. (t -. sg.x))

let slope_at c t = c.(seg_index c t).s
let final_slope c = c.(Array.length c - 1).s
let breakpoints c = Array.map (fun sg -> sg.x) c

(* Relative epsilon on the time axis of a pair of curves, used to drop
   duplicate breakpoints produced by crossings landing on existing ones. *)
let x_eps a b =
  let last c = c.(Array.length c - 1).x in
  Feq.scale_eps (Float.max (last a) (last b))

let sorted_unique eps xs =
  Array.sort Float.compare xs;
  let out = ref [] in
  Array.iter
    (fun x ->
      match !out with
      | prev :: _ when Feq.approx ~eps prev x -> ()
      | _ -> out := x :: !out)
    xs;
  Array.of_list (List.rev !out)

let merged_xs a b =
  sorted_unique (x_eps a b) (Array.append (breakpoints a) (breakpoints b))

let sum a b =
  Array.map
    (fun x -> { x; y = eval a x +. eval b x; s = slope_at a x +. slope_at b x })
    (merged_xs a b)

let sub a b =
  Array.map
    (fun x -> { x; y = eval a x -. eval b x; s = slope_at a x -. slope_at b x })
    (merged_xs a b)

(* Breakpoints of both curves plus every point where they cross, so that
   within each output interval one curve dominates throughout. *)
let xs_with_crossings a b =
  let xs = merged_xs a b in
  let eps = x_eps a b in
  let extra = ref [] in
  let n = Array.length xs in
  for i = 0 to n - 1 do
    let u = xs.(i) in
    let du = eval a u -. eval b u and sd = slope_at a u -. slope_at b u in
    if Float.abs sd > 0.0 then begin
      let r = u -. (du /. sd) in
      let inside =
        r > u +. eps && (i + 1 >= n || r < xs.(i + 1) -. eps)
      in
      if inside then extra := r :: !extra
    end
  done;
  sorted_unique eps (Array.append xs (Array.of_list !extra))

let max_curve a b =
  Array.map
    (fun x ->
      let ya = eval a x and yb = eval b x in
      let sa = slope_at a x and sb = slope_at b x in
      let eps = Feq.scale_eps (Float.max (Float.abs ya) (Float.abs yb)) in
      let pick_a = if Feq.approx ~eps ya yb then sa >= sb else ya > yb in
      if pick_a then { x; y = ya; s = sa } else { x; y = yb; s = sb })
    (xs_with_crossings a b)
  |> check "Curve.max_curve"

let pos c = max_curve c zero

let inv c y =
  let n = Array.length c in
  if y <= c.(0).y then 0.0
  else begin
    let result = ref Float.nan in
    let i = ref 0 in
    while Float.is_nan !result && !i < n do
      let sg = c.(!i) in
      if y <= sg.y then result := sg.x
      else begin
        let reach =
          if !i + 1 < n then sg.y +. (sg.s *. (c.(!i + 1).x -. sg.x))
          else Float.infinity
        in
        let hit = sg.s > 0.0 && y <= reach in
        if hit then result := sg.x +. ((y -. sg.y) /. sg.s)
        else if !i + 1 >= n then result := Float.infinity
      end;
      incr i
    done;
    !result
  end

let hdev ~alpha ~beta =
  let rho = final_slope alpha and r = final_slope beta in
  let seps = Feq.scale_eps (Float.max (Float.abs rho) (Float.abs r)) in
  if rho > r +. seps then Float.infinity
  else begin
    (* d(t) = inv beta (alpha t) - t is piecewise linear with kinks only
       at alpha's breakpoints and at preimages (under alpha) of beta's
       breakpoint values, so the supremum is attained on this set. *)
    let cands = ref (Array.to_list (breakpoints alpha)) in
    Array.iter
      (fun sg ->
        let tpre = inv alpha sg.y in
        if Float.is_finite tpre then cands := tpre :: !cands)
      beta;
    List.fold_left
      (fun acc t ->
        let d = inv beta (eval alpha t) -. t in
        Float.max acc d)
      0.0 !cands
  end

let vdev ~alpha ~beta =
  let rho = final_slope alpha and r = final_slope beta in
  let seps = Feq.scale_eps (Float.max (Float.abs rho) (Float.abs r)) in
  if rho > r +. seps then Float.infinity
  else
    Array.fold_left
      (fun acc x -> Float.max acc (eval alpha x -. eval beta x))
      0.0 (merged_xs alpha beta)
