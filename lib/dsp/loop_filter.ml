(** Proportional-integral loop filter.

    The "Loop filter" block of Fig. 5: smooths the raw timing-error
    samples into the NCO control word,

    [lferr = Kp·err + ∫ Ki·err].

    The integrator register is the classic range-propagation
    {e accumulator}: its propagated range grows without bound (paper
    §5.1 case (b)), making it one of the two feedback signals the
    evaluation reports as needing saturation mode. *)

type t = {
  kp : float;
  ki : float;
  pterm : Sim.Signal.t;  (** Kp·err *)
  integ : Sim.Signal.t;  (** integrator state, registered *)
  out : Sim.Signal.t;  (** lferr *)
}

let create env ?(prefix = "lf_") ~kp ~ki () =
  {
    kp;
    ki;
    pterm = Sim.Signal.create env (prefix ^ "p");
    integ = Sim.Signal.create_reg env (prefix ^ "integ");
    out = Sim.Signal.create env (prefix ^ "lferr");
  }

let output t = t.out
let integrator t = t.integ
let signals t = [ t.pterm; t.integ; t.out ]

(** Advance the filter with one error sample; drives and returns
    [lferr]. *)
let step t (err : Sim.Value.t) : Sim.Value.t =
  let open Sim.Ops in
  let inc = cst t.ki *: err in
  t.pterm <-- cst t.kp *: err;
  t.integ <-- !!(t.integ) +: inc;
  (* the register read sees the pre-update integral; add the fresh
     increment so lferr includes the current error sample *)
  t.out <-- !!(t.pterm) +: !!(t.integ) +: inc;
  !!(t.out)

(** Hold the filter (no new error sample this cycle): state keeps its
    value, output re-driven from state. *)
let hold t : Sim.Value.t =
  let open Sim.Ops in
  t.out <-- !!(t.pterm) +: !!(t.integ);
  !!(t.out)

(** Float reference for tests. *)
let reference ~kp ~ki errs =
  let integ = ref 0.0 in
  Array.map
    (fun e ->
      integ := !integ +. (ki *. e);
      (kp *. e) +. !integ)
    errs

(** Standard second-order loop-gain design: pick Kp, Ki for damping
    ζ = 0.7071 and normalized loop bandwidth [bn] (per symbol), for a
    detector gain [kd] and an NCO gain of 1. *)
let design ?(kd = 1.0) ~bn () =
  if bn <= 0.0 || bn >= 0.5 then invalid_arg "Loop_filter.design: bn";
  let zeta = 0.7071 in
  let theta = bn /. (zeta +. (1.0 /. (4.0 *. zeta))) in
  let d = 1.0 +. (2.0 *. zeta *. theta) +. (theta *. theta) in
  let kp = 4.0 *. zeta *. theta /. d /. kd in
  let ki = 4.0 *. theta *. theta /. d /. kd in
  (kp, ki)
