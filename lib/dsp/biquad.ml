(** Second-order IIR section (biquad), direct form I.

    A recursive filter is the sharpest test of the refinement machinery:
    its feedback taps make the quasi-analytical range propagation grow
    (exploding when the section is marginally stable), and quantization
    noise recirculates — the "limit cycle" caveat of §4.2.  Used by tests
    as a controllable feedback workload (pole radius directly sets how
    fast ranges and errors grow), and its [l1_gain] is the reference ℓ1
    worst-case-gain bound for feedback sections.  No design, workload or
    bench builds it; [Verify.Designs.biquad] builds its pinned pair by
    hand (see that module).

    [y_n = b0·x_n + b1·x_{n-1} + b2·x_{n-2} − a1·y_{n-1} − a2·y_{n-2}] *)

type coeffs = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }

type t = {
  coeffs : coeffs;
  x1 : Sim.Signal.t;  (** x_{n-1}, reg *)
  x2 : Sim.Signal.t;  (** x_{n-2}, reg *)
  y1 : Sim.Signal.t;  (** y_{n-1}, reg *)
  y2 : Sim.Signal.t;  (** y_{n-2}, reg *)
  ff : Sim.Signal.t;  (** feed-forward sum *)
  fb : Sim.Signal.t;  (** feedback sum *)
  out : Sim.Signal.t;
}

let create env ?(prefix = "bq_") coeffs =
  {
    coeffs;
    x1 = Sim.Signal.create_reg env (prefix ^ "x1");
    x2 = Sim.Signal.create_reg env (prefix ^ "x2");
    y1 = Sim.Signal.create_reg env (prefix ^ "y1");
    y2 = Sim.Signal.create_reg env (prefix ^ "y2");
    ff = Sim.Signal.create env (prefix ^ "ff");
    fb = Sim.Signal.create env (prefix ^ "fb");
    out = Sim.Signal.create env (prefix ^ "y");
  }

let output t = t.out
let signals t = [ t.x1; t.x2; t.y1; t.y2; t.ff; t.fb; t.out ]

let step t (x : Sim.Value.t) : Sim.Value.t =
  let open Sim.Ops in
  let c = t.coeffs in
  t.ff
  <-- (cst c.b0 *: x)
      +: (cst c.b1 *: !!(t.x1))
      +: (cst c.b2 *: !!(t.x2));
  t.fb <-- (cst c.a1 *: !!(t.y1)) +: (cst c.a2 *: !!(t.y2));
  t.out <-- !!(t.ff) -: !!(t.fb);
  t.x2 <-- !!(t.x1);
  t.x1 <-- x;
  t.y2 <-- !!(t.y1);
  t.y1 <-- !!(t.out);
  !!(t.out)

(** Float reference. *)
let reference coeffs input =
  let x1 = ref 0.0 and x2 = ref 0.0 and y1 = ref 0.0 and y2 = ref 0.0 in
  Array.map
    (fun x ->
      let y =
        (coeffs.b0 *. x) +. (coeffs.b1 *. !x1) +. (coeffs.b2 *. !x2)
        -. (coeffs.a1 *. !y1) -. (coeffs.a2 *. !y2)
      in
      x2 := !x1;
      x1 := x;
      y2 := !y1;
      y1 := y;
      y)
    input

(** Coefficients of a unity-gain resonator with pole radius [r] and
    angle [theta] (radians): the workload knob for feedback studies. *)
let resonator ~r ~theta =
  if r < 0.0 || r >= 1.0 then invalid_arg "Biquad.resonator: r must be in [0,1)";
  let a1 = -2.0 *. r *. cos theta and a2 = r *. r in
  (* normalize DC gain to 1 *)
  let dc = (1.0 +. a1 +. a2) in
  { b0 = dc; b1 = 0.0; b2 = 0.0; a1; a2 }

(** Worst-case output bound (sum of |impulse response|), truncated at
    [horizon] taps — what sound range propagation may not undershoot. *)
let l1_gain ?(horizon = 4096) coeffs =
  let x1 = ref 0.0 and x2 = ref 0.0 and y1 = ref 0.0 and y2 = ref 0.0 in
  let acc = ref 0.0 in
  for n = 0 to horizon - 1 do
    let x = if n = 0 then 1.0 else 0.0 in
    let y =
      (coeffs.b0 *. x) +. (coeffs.b1 *. !x1) +. (coeffs.b2 *. !x2)
      -. (coeffs.a1 *. !y1) -. (coeffs.a2 *. !y2)
    in
    x2 := !x1;
    x1 := x;
    y2 := !y1;
    y1 := y;
    acc := !acc +. Float.abs y
  done;
  !acc

(** The biquad as an analytical flowgraph. *)
let to_sfg ?(prefix = "bq_") ?y_range ~input_range:(lo, hi) coeffs g =
  let x = Sfg.Graph.input g (prefix ^ "x") ~lo ~hi in
  let x1 = Sfg.Graph.delay_of g (prefix ^ "x1") x in
  let x2 = Sfg.Graph.delay_of g (prefix ^ "x2") x1 in
  let y1 = Sfg.Graph.delay g (prefix ^ "y1") in
  let y1r =
    match y_range with
    | None -> y1
    | Some (ylo, yhi) ->
        Sfg.Graph.saturate g ~name:(prefix ^ "y1.range") y1 ~lo:ylo ~hi:yhi
  in
  let y2 = Sfg.Graph.delay_of g (prefix ^ "y2") y1r in
  let term c n v = Sfg.Graph.mul g ~name:(prefix ^ n) (Sfg.Graph.const g c) v in
  let ff0 = term coeffs.b0 "b0x" x in
  let ff1 = term coeffs.b1 "b1x1" x1 in
  let ff2 = term coeffs.b2 "b2x2" x2 in
  let ff =
    Sfg.Graph.add g ~name:(prefix ^ "ff")
      (Sfg.Graph.add g ~name:(prefix ^ "ff01") ff0 ff1)
      ff2
  in
  let fb1 = term coeffs.a1 "a1y1" y1r in
  let fb2 = term coeffs.a2 "a2y2" y2 in
  let fb = Sfg.Graph.add g ~name:(prefix ^ "fb") fb1 fb2 in
  let y = Sfg.Graph.sub g ~name:(prefix ^ "y") ff fb in
  Sfg.Graph.connect_delay g y1 y;
  Sfg.Graph.mark_output g (prefix ^ "y") y;
  (x, y)
