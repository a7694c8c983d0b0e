(** The closed symbol-timing synchronizer, the complex evaluation
    example of §6.1 (Fig. 5) and its ML-TED generalization.

    {v
       in ──▶ Interpolator (MF + dMF) ──▶ out (symbol rate)
                 │        ▲ mu                │
                 ▼        │                   ▼
        Timing error detector            decisions
         (Gardner | ML-TED)
                 │ err
                 ▼
            Loop filter ──lferr──▶ NCO ──strobe/mu──▶ (loop)
    v}

    The paper's Fig. 5 loop is [~ted:Gardner ~m:2 ~sps:2].  The detector
    is selectable (Gardner or the decision-directed ML-TED of
    {!Ml_ted}), as are the M-PAM constellation and any oversampling
    factor [sps ≥ 2].  Every input sample is shifted
    into the Farrow interpolator; the modulo-1 NCO wraps once per
    symbol, marking the symbol strobe where the interpolant is the
    decision-instant sample.  The Gardner variant additionally watches
    the NCO phase for its half-symbol crossing ([eta] passing ½) and
    interpolates the true mid-symbol sample there, which is what lets it
    run at [sps > 2]; the ML variant instead evaluates the
    interpolator's μ-derivative at the strobe (derivative matched
    filter) and needs no mid sample at all.

    The fixed-point phenomena of §6.1 live in two places: the
    loop-filter integrator's propagated range explodes (§5.1 case (b) — refined with [range()] saturation)
    and the NCO phase register's error monitoring diverges (§6.1's
    "D signal inside of NCO" — overruled with [error()]). *)

type ted = Gardner | Ml

type t = {
  env : Sim.Env.t;
  ted : ted;
  m : int;  (** PAM-M constellation size *)
  sps : int;
  x : Sim.Signal.t;  (** receiver input sample *)
  interp : Interpolator.t;
  gardner : Gardner_ted.t option;
  mlted : Ml_ted.t option;
  slicer : Slicer.t;  (** output decisions (ML reuses its own) *)
  lf : Loop_filter.t;
  nco : Nco.t;
  mid_mu : Sim.Signal.t;  (** fractional offset of the ½-crossing *)
  out : Sim.Signal.t;  (** symbol-rate soft output *)
  input : Sim.Channel.t;
  output : Sim.Channel.t;  (** soft decision-instant samples (MER) *)
  decisions : Sim.Channel.t option;  (** sliced symbols (SER) *)
  mutable n_strobes : int;
  mutable n_samples : int;
}

(* Loop bandwidth ~0.7% of the symbol rate, damping 1/√2.  Detector
   gains on β = 0.35 raised-cosine PAM are ≈2.5 for Gardner at sps = 2
   and of the same order for the ML-TED's Farrow-derivative form (the
   derivative is taken per sample period, which scales Kd by sps). *)
let default_gains ~ted ~sps =
  let kd =
    match ted with
    | Gardner -> 2.5
    | Ml -> 1.7 *. Float.of_int sps
  in
  Loop_filter.design ~bn:0.007 ~kd ()

let create env ?kp ?ki ?(ted = Ml) ?(m = 2) ?(sps = 2) ?x_dtype ~input
    ~output ?decisions () =
  if sps < 2 then invalid_arg "Synchronizer.create: sps";
  if m < 2 || m mod 2 <> 0 then invalid_arg "Synchronizer.create: bad m";
  let dkp, dki = default_gains ~ted ~sps in
  let kp = Option.value kp ~default:dkp
  and ki = Option.value ki ~default:dki in
  let t =
    {
      env;
      ted;
      m;
      sps;
      x = Sim.Signal.create env ?dtype:x_dtype "in";
      interp = Interpolator.create env ~deriv:(ted = Ml) ();
      gardner =
        (if ted = Gardner then Some (Gardner_ted.create env ()) else None);
      mlted = (if ted = Ml then Some (Ml_ted.create env ~m ()) else None);
      slicer = Slicer.create env "dec";
      lf = Loop_filter.create env ~kp ~ki ();
      nco = Nco.create env ~sps ();
      mid_mu = Sim.Signal.create env "mid_mu";
      out = Sim.Signal.create env "out";
      input;
      output;
      decisions;
      n_strobes = 0;
      n_samples = 0;
    }
  in
  Sim.Env.at_reset env (fun () ->
      t.n_strobes <- 0;
      t.n_samples <- 0);
  t

let env t = t.env
let detector t = t.ted
let constellation t = t.m
let sps t = t.sps
let input_signal t = t.x
let output_signal t = t.out
let interpolator t = t.interp
let loop_filter t = t.lf
let nco t = t.nco

(** The detector's error signal (Gardner's or the ML-TED's). *)
let error_signal t =
  match (t.gardner, t.mlted) with
  | Some g, _ -> Gardner_ted.error g
  | _, Some m -> Ml_ted.error m
  | None, None -> assert false

(** One input-sample clock cycle. *)
let step t =
  let open Sim.Ops in
  t.n_samples <- t.n_samples + 1;
  t.x <-- Sim.Value.of_float (Sim.Channel.get t.input);
  Interpolator.shift t.interp !!(t.x);
  let strobed, mu = Nco.step t.nco !!(Loop_filter.output t.lf) in
  (* the registered phase still reads pre-decrement; eta_next is the
     fresh decremented value — together they expose this sample's
     crossings *)
  let eta = !!(Nco.phase t.nco) and eta_next = !!(Nco.next_phase t.nco) in
  (match t.gardner with
  | Some g ->
      (* Gardner's mid-symbol sample: interpolate at the ½-crossing of
         the NCO phase (at sps = 2 this alternates with the strobe; at
         higher sps it picks the right half-symbol instant).  Evaluated
         before the decision-instant interpolant so a same-sample
         ½-then-0 double crossing (W > ½) keeps time order. *)
      let crossed_half = eta >=: cst 0.5 && eta_next <: cst 0.5 in
      if crossed_half then begin
        t.mid_mu <-- (eta -: cst 0.5) /: !!(Nco.control t.nco);
        let y_mid = Interpolator.interpolate t.interp !!(t.mid_mu) in
        Gardner_ted.capture_mid g y_mid
      end
  | None -> ());
  let y = Interpolator.interpolate t.interp mu in
  if strobed then begin
    t.n_strobes <- t.n_strobes + 1;
    t.out <-- y;
    Sim.Channel.put t.output (Sim.Value.fx !!(t.out));
    let err =
      match (t.gardner, t.mlted) with
      | Some g, _ ->
          (match t.decisions with
          | Some dc ->
              let d = Slicer.step_pam t.slicer ~m:t.m !!(t.out) in
              Sim.Channel.put dc (Sim.Value.fx d)
          | None -> ());
          Gardner_ted.detect g y
      | _, Some ml ->
          let ydot = Interpolator.differentiate t.interp mu in
          let e = Ml_ted.detect ml ~y ~ydot in
          (match t.decisions with
          | Some dc ->
              Sim.Channel.put dc (Sim.Value.fx !!(Ml_ted.decision ml))
          | None -> ());
          e
      | None, None -> assert false
    in
    ignore (Loop_filter.step t.lf err)
  end
  else ignore (Loop_filter.hold t.lf)

(** Run [samples] input samples. *)
let run t ~samples = Sim.Engine.run t.env ~cycles:samples (fun _ -> step t)

let strobes t = t.n_strobes

(** Strobe-rate lock metric: |strobes/(samples/sps) − 1| — the relative
    deviation of the recovered symbol rate from 1/sps over the samples
    seen since reset.  A locked loop keeps this within ~1% (to isolate
    the steady state, snapshot {!strobes} before and after a window of
    [run ~samples] and compare the difference with [samples/sps]). *)
let strobe_rate_error t =
  if t.n_samples <= 0 then Float.infinity
  else
    let expected = Float.of_int t.n_samples /. Float.of_int t.sps in
    Float.abs ((Float.of_int t.n_strobes /. expected) -. 1.0)
