(** Numerically-controlled oscillator (interpolation control).

    The "NCO" block of Fig. 5: a modulo-1 phase decrementer that converts
    the loop-filter output into interpolation commands.  Every input
    sample the phase register [eta] decreases by the control word
    [W = 1/sps + lferr]; an underflow (wrap) marks a {e strobe} — an
    output instant — and the fractional interpolation offset is
    [mu = eta / W] at that instant.

    The phase register [eta] is the paper's "D signal inside of NCO": its
    float/fixed error integrates control-word errors forever, so the
    error monitoring on it diverges and must be overruled with [error()]
    (§6.1) — this module is where that phenomenon lives. *)

type t = {
  w_nominal : float;  (** 1/sps: nominal phase decrement per sample *)
  w_min : float;  (** control-word clamp (a real NCO bounds its rate) *)
  w_max : float;
  eta : Sim.Signal.t;  (** phase register, modulo-1, registered *)
  w : Sim.Signal.t;  (** control word W *)
  eta_next : Sim.Signal.t;  (** decremented phase before wrap *)
  mu : Sim.Signal.t;  (** fractional offset at strobes (held) *)
  strobe : Sim.Signal.t;  (** 1.0 at output instants, else 0.0 *)
}

let create env ?(prefix = "nco_") ~sps () =
  if sps < 1 then invalid_arg "Nco.create: sps";
  let w_nominal = 1.0 /. Float.of_int sps in
  {
    w_nominal;
    w_min = w_nominal /. 2.0;
    w_max = 1.5 *. w_nominal;
    eta = Sim.Signal.create_reg env (prefix ^ "eta");
    w = Sim.Signal.create env (prefix ^ "w");
    eta_next = Sim.Signal.create env (prefix ^ "eta_next");
    (* combinational with assign-on-strobe: holds between strobes, but
       the strobe cycle's interpolation sees the fresh value *)
    mu = Sim.Signal.create env (prefix ^ "mu");
    strobe = Sim.Signal.create env (prefix ^ "strobe");
  }

let phase t = t.eta
let mu t = t.mu
let next_phase t = t.eta_next
let control t = t.w
let signals t = [ t.eta; t.w; t.eta_next; t.mu; t.strobe ]

(** Advance one input sample with loop correction [lferr].  Returns
    [(strobed, mu)] — whether this sample is an output instant, and the
    fractional offset value.  The strobe decision is made on fixed-point
    values (control steering, §4.2), so the float phase wraps at exactly
    the same instants. *)
let step t (lferr : Sim.Value.t) =
  let open Sim.Ops in
  t.w
  <-- max_ (cst t.w_min) (min_ (cst t.w_max) (cst t.w_nominal +: lferr));
  t.eta_next <-- !!(t.eta) -: !!(t.w);
  let strobed = !!(t.eta_next) <: cst 0.0 in
  if strobed then begin
    t.strobe <-- cst 1.0;
    (* mu = eta / W: position of the wrap instant inside the sample *)
    t.mu <-- !!(t.eta) /: !!(t.w);
    t.eta <-- !!(t.eta_next) +: cst 1.0
  end
  else begin
    t.strobe <-- cst 0.0;
    t.eta <-- !!(t.eta_next)
  end;
  (strobed, !!(t.mu))

(** Float reference model for tests: fold over lferr samples, returning
    the strobe/mu sequence. *)
let reference ~sps lferrs =
  let w_nom = 1.0 /. Float.of_int sps in
  let eta = ref 0.0 in
  let mu = ref 0.0 in
  Array.map
    (fun lferr ->
      let w = Float.max (w_nom /. 2.0) (Float.min (1.5 *. w_nom) (w_nom +. lferr)) in
      let next = !eta -. w in
      if next < 0.0 then begin
        mu := !eta /. w;
        eta := next +. 1.0;
        (true, !mu)
      end
      else begin
        eta := next;
        (false, !mu)
      end)
    lferrs
