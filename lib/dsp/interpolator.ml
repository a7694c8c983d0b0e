(** Cubic Lagrange (Farrow-structure) interpolator.

    The "Interpolator" block of the Fig. 5 timing-recovery loop: produces
    the receive sample at fractional position [mu] between the stored
    input samples.  The Farrow structure exposes the polynomial
    coefficients [a0..a3] and the Horner chain as individual signals, so
    each hardware node gets its own fixed-point refinement — the level of
    granularity that gives the paper its 61-signal count.

    For the four stored samples x[0] (newest) … x[3] (oldest), the
    interpolant between x[2] and x[1] at fraction [mu] is

    [y(μ) = ((a3·μ + a2)·μ + a1)·μ + a0] with

    a0 = x[2]
    a1 = −x[3]/3 − x[2]/2 + x[1] − x[0]/6
    a2 =  x[3]/2 − x[2]   + x[1]/2
    a3 = −x[3]/6 + x[2]/2 − x[1]/2 + x[0]/6.

    With [~deriv:true] the block also exposes the polynomial's
    μ-derivative [y'(μ) = (3·a3·μ + 2·a2)·μ + a1] as its own Horner
    chain — the "derivative matched filter" sample the decision-directed
    ML timing-error detector multiplies against the symbol decision
    (Rice §8.4); sharing the [a] coefficients costs two extra multiplies,
    not a second filter bank. *)

type t = {
  taps : Sim.Sig_array.t;  (** x[0..3], registered delay line *)
  a : Sim.Sig_array.t;  (** Farrow coefficients a[0..3] *)
  h : Sim.Sig_array.t;  (** Horner chain h[0..2] *)
  out : Sim.Signal.t;
  dh : Sim.Sig_array.t option;  (** derivative Horner chain d[0..1] *)
  dout : Sim.Signal.t option;  (** y'(μ), when built with [~deriv] *)
}

let create env ?(prefix = "ip_") ?(deriv = false) () =
  {
    taps = Sim.Sig_array.create_reg env (prefix ^ "x") 4;
    a = Sim.Sig_array.create env (prefix ^ "a") 4;
    h = Sim.Sig_array.create env (prefix ^ "h") 3;
    out = Sim.Signal.create env (prefix ^ "out");
    dh =
      (if deriv then Some (Sim.Sig_array.create env (prefix ^ "d") 2)
       else None);
    dout =
      (if deriv then Some (Sim.Signal.create env (prefix ^ "dout"))
       else None);
  }

let taps t = t.taps
let coeffs t = t.a
let horner t = t.h
let output t = t.out

(** All signals of the block, declaration order. *)
let signals t =
  Sim.Sig_array.to_list t.taps @ Sim.Sig_array.to_list t.a
  @ Sim.Sig_array.to_list t.h @ [ t.out ]
  @ (match t.dh with Some d -> Sim.Sig_array.to_list d | None -> [])
  @ match t.dout with Some s -> [ s ] | None -> []

(** Shift one new input sample into the delay line (call once per input
    sample, before {!interpolate}). *)
let shift t (input : Sim.Value.t) =
  let open Sim.Ops in
  Sim.Sig_array.get t.taps 0 <-- input;
  for i = 3 downto 1 do
    Sim.Sig_array.get t.taps i <-- !!(Sim.Sig_array.get t.taps (i - 1))
  done

(** Evaluate the interpolant at [mu]; drives and returns [out]. *)
let interpolate t (mu : Sim.Value.t) : Sim.Value.t =
  let open Sim.Ops in
  let x i = !!(Sim.Sig_array.get t.taps i) in
  let a i = Sim.Sig_array.get t.a i in
  let h i = Sim.Sig_array.get t.h i in
  a 0 <-- x 2;
  a 1
  <-- x 1
      -: (x 3 /: cst 3.0)
      -: (x 2 /: cst 2.0)
      -: (x 0 /: cst 6.0);
  a 2 <-- (x 3 /: cst 2.0) -: x 2 +: (x 1 /: cst 2.0);
  a 3
  <-- (x 2 /: cst 2.0)
      -: (x 3 /: cst 6.0)
      -: (x 1 /: cst 2.0)
      +: (x 0 /: cst 6.0);
  h 0 <-- (!!(a 3) *: mu) +: !!(a 2);
  h 1 <-- (!!(h 0) *: mu) +: !!(a 1);
  h 2 <-- (!!(h 1) *: mu) +: !!(a 0);
  t.out <-- !!(h 2);
  !!(t.out)

(** Evaluate the interpolant's μ-derivative at the same [mu] — call
    {e after} {!interpolate}, which drives the shared [a] coefficients;
    drives and returns the derivative output. *)
let differentiate t (mu : Sim.Value.t) : Sim.Value.t =
  match (t.dh, t.dout) with
  | Some dh, Some dout ->
      let open Sim.Ops in
      let a i = Sim.Sig_array.get t.a i in
      let d i = Sim.Sig_array.get dh i in
      d 0 <-- (cst 3.0 *: !!(a 3) *: mu) +: (cst 2.0 *: !!(a 2));
      d 1 <-- (!!(d 0) *: mu) +: !!(a 1);
      dout <-- !!(d 1);
      !!dout
  | _ -> invalid_arg "Interpolator.differentiate: built without deriv"

(** Pure float reference for tests: interpolate the array [x] (newest
    first, length 4) at [mu]. *)
let reference x mu =
  if Array.length x <> 4 then invalid_arg "Interpolator.reference";
  let a0 = x.(2) in
  let a1 =
    x.(1) -. (x.(3) /. 3.0) -. (x.(2) /. 2.0) -. (x.(0) /. 6.0)
  in
  let a2 = (x.(3) /. 2.0) -. x.(2) +. (x.(1) /. 2.0) in
  let a3 =
    (x.(2) /. 2.0) -. (x.(3) /. 6.0) -. (x.(1) /. 2.0) +. (x.(0) /. 6.0)
  in
  ((((a3 *. mu) +. a2) *. mu) +. a1) *. mu +. a0

(** Float reference of the μ-derivative (same layout as
    {!reference}). *)
let derivative_reference x mu =
  if Array.length x <> 4 then
    invalid_arg "Interpolator.derivative_reference";
  let a1 =
    x.(1) -. (x.(3) /. 3.0) -. (x.(2) /. 2.0) -. (x.(0) /. 6.0)
  in
  let a2 = (x.(3) /. 2.0) -. x.(2) +. (x.(1) /. 2.0) in
  let a3 =
    (x.(2) /. 2.0) -. (x.(3) /. 6.0) -. (x.(1) /. 2.0) +. (x.(0) /. 6.0)
  in
  (((3.0 *. a3 *. mu) +. (2.0 *. a2)) *. mu) +. a1
