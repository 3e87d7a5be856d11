type t = {
  fill_rate : float; (* bytes/s *)
  bucket_size : float; (* bytes *)
  mutable tokens : float;
  mutable last : float;
}

let create ~rate ~burst =
  if not (rate > 0.0) then invalid_arg "Tokenbucket.create: rate <= 0";
  if not (burst > 0.0) then invalid_arg "Tokenbucket.create: burst <= 0";
  { fill_rate = rate; bucket_size = burst; tokens = burst; last = 0.0 }

let settle t ~now =
  if now > t.last then begin
    t.tokens <-
      Float.min t.bucket_size (t.tokens +. ((now -. t.last) *. t.fill_rate));
    t.last <- now
  end

let available t ~now =
  settle t ~now;
  t.tokens

(* Tolerance for the [bytes = burst] boundary: a burst computed by float
   arithmetic can land an ulp either side of the integral byte count, and
   a strict comparison would then misclassify a satisfiable request as
   forever-blocked (or leave [time_until]'s finite answer pointing at a
   [try_consume] that never succeeds).  Both entry points share the same
   scale-relative epsilon so they stay consistent: whenever [time_until]
   returns a finite wait, [try_consume] succeeds after that wait. *)
let eps t = Midrr_flownet.Feq.scale_eps t.bucket_size

let try_consume t ~now ~bytes =
  if bytes < 0 then invalid_arg "Tokenbucket.try_consume: negative bytes";
  settle t ~now;
  let need = Float.of_int bytes in
  if Midrr_flownet.Feq.geq ~eps:(eps t) t.tokens need then begin
    t.tokens <- Float.max 0.0 (t.tokens -. need);
    true
  end
  else false

let time_until t ~now ~bytes =
  settle t ~now;
  let need = Float.of_int bytes in
  let eps = eps t in
  if not (Midrr_flownet.Feq.leq ~eps need t.bucket_size) then Float.infinity
  else if Midrr_flownet.Feq.geq ~eps t.tokens need then 0.0
  else (need -. t.tokens) /. t.fill_rate
