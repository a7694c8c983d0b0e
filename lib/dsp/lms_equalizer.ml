(** The paper's motivational example (§3, Fig. 1): a simplified
    symbol-spaced adaptive LMS equalizer for binary PAM.

    Structure, signal names and the execution loop follow the paper's
    behavioural C listing line by line:

    {v
      d[0] = get(x);  d[i] = d[i-1]                -- delay line
      v[0] = 0;  v[i] = v[i-1] + d[i-1]*c[i-1]     -- FIR with constant c
      w = v[N] - b*s                               -- feedback correction
      y = w > 0 ? 1 : -1                           -- slicer
      b = b + mu*s*(w - y)                         -- adaptation (LMS)
      s = y                                        -- previous decision
    v}

    The third FIR coefficient and the adaptation constant are garbled in
    the available scan; we use −0.14 and μ = 2⁻⁵ (see DESIGN.md,
    substitutions).  The fixed-point refinement questions the example
    poses — the range-propagation explosion of [b] and [w] through the
    decision feedback loop, and the LSB placement of the [v] chain — are
    structural and do not depend on those constants. *)

let default_coefs = [| -0.11; 1.2; -0.14 |]
let default_mu = 0.03125 (* 2^-5 *)

type t = {
  env : Sim.Env.t;
  x : Sim.Signal.t;  (** received input sample *)
  fir : Fir.t;  (** c, d, v — names match the paper *)
  w : Sim.Signal.t;  (** slicer input *)
  slicer : Slicer.t;  (** output y *)
  b : Sim.Signal.t;  (** adapted feedback coefficient (reg) *)
  s : Sim.Signal.t;  (** previous decision (reg) *)
  mu : float;
  steered : bool;
      (** [true] (the paper's §4.2 rule): the float execution follows the
          fixed-point slicer decisions.  [false] is the ablation knob. *)
  input : Sim.Channel.t;
  output : Sim.Channel.t;
}

(** Declare the equalizer in [env], reading stimuli from [input] and
    writing decisions to [output].  [x_dtype] quantizes the input signal
    (the paper's "partial type definition" starting point). *)
let create env ?(coefs = default_coefs) ?(mu = default_mu) ?(steered = true)
    ?x_dtype ~input ~output () =
  let x = Sim.Signal.create env ?dtype:x_dtype "x" in
  let fir = Fir.create env ~coefs () in
  let w = Sim.Signal.create env "w" in
  let slicer = Slicer.create env "y" in
  let b = Sim.Signal.create_reg env "b" in
  let s = Sim.Signal.create_reg env "s" in
  { env; x; fir; w; slicer; b; s; mu; steered; input; output }

let x t = t.x
let w t = t.w
let b t = t.b
let s t = t.s
let y t = Slicer.output t.slicer
let fir t = t.fir
let env t = t.env

(** The signals of the paper's Tables 1 and 2, in table order. *)
let table_signals t =
  Sim.Sig_array.to_list (Fir.coefs t.fir)
  @ [ t.x ]
  @ Sim.Sig_array.to_list (Fir.delay_line t.fir)
  @ List.tl (Sim.Sig_array.to_list (Fir.accumulators t.fir))
  @ [ t.w; t.b; y t ]

(** One symbol period (one clock cycle), as in the paper's [while(1)]
    loop body. *)
let step t =
  let open Sim.Ops in
  t.x <-- Sim.Value.of_float (Sim.Channel.get t.input);
  let v_n = Fir.step t.fir !!(t.x) in
  t.w <-- v_n -: (!!(t.b) *: !!(t.s));
  let y =
    if t.steered then Slicer.step t.slicer !!(t.w)
    else begin
      Slicer.output t.slicer <-- sign_unsteered !!(t.w);
      !!(Slicer.output t.slicer)
    end
  in
  (* with w = v3 − b·s, the LMS gradient step on e = w − y is
     b ← b + μ·s·e (∂e/∂b = −s) *)
  t.b <-- !!(t.b) +: (cst t.mu *: !!(t.s) *: (!!(t.w) -: y));
  t.s <-- y;
  Sim.Channel.put t.output (Sim.Value.fx y)

(** Run [cycles] symbols through the equalizer. *)
let run t ~cycles = Sim.Engine.run t.env ~cycles (fun _ -> step t)
