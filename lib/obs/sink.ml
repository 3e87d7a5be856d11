type raw = Event.record -> unit
type t = time:float -> Event.record -> unit

let tee (a : t) (b : t) : t =
 fun ~time ev ->
  a ~time ev;
  b ~time ev

let stamp ~clock (s : t) : raw = fun ev -> s ~time:(clock ()) ev
