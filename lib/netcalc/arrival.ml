let token_bucket ~rate ~burst = Curve.affine ~burst ~rate

let cbr ~rate_bps ~pkt =
  if pkt <= 0 then invalid_arg "Arrival.cbr: pkt <= 0";
  token_bucket ~rate:(rate_bps /. 8.0) ~burst:(Float.of_int pkt)

let aggregate curves = List.fold_left Curve.sum Curve.zero curves
