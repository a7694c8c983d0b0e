(* The six standard conformance workloads, as views of the design
   catalogue.  Everything here is deterministic: the catalogue fixes
   environment seeds, stimulus seeds and sample counts — so a
   build+run is bit-reproducible and its trace can be snapshotted as a
   golden file. *)

type built = {
  env : Sim.Env.t;
  workload : string;
  probe : string;
  run : unit -> unit;
  graph : Sfg.Graph.t option;
  extract_graph : (unit -> Sfg.Graph.t) option;
  divergence_bound : float option;
  max_divergence : unit -> float;
  sqnr : Stats.Sqnr.t;
  predicted_sqnr_db : (unit -> float) option;
  sqnr_tolerance_db : float;
  stat_tolerance : float;
  design : Refine.Flow.design option;
  vcd : unit -> string;
}

type t = { name : string; build : unit -> built }

(* How many leading cycles each run samples into its VCD trace. *)
let vcd_cycles = 64

(* What a workload adds to its catalogue design: the analytical twin
   (the graph extracted from a fresh instance of the same design, so
   extraction does not advance the run the goldens trace), the
   tolerances of the invariants, and whether the golden traces include
   a refinement report. *)
type twin = {
  graph : Sfg.Graph.t option;
  bound : float option;
  predict : (Stats.Sqnr.t -> float) option;
  sqnr_tol : float;
  stat_tol : float;
  refine : bool;
}

let twin =
  {
    graph = None;
    bound = None;
    predict = None;
    sqnr_tol = 0.0;
    stat_tol = 0.25;
    refine = false;
  }

(* The one view of a design: per-probe trackers (SQNR of fixed vs float
   at the probe, the worst observed divergence), the VCD text of the
   last run over the design's watched signals, extraction, and the
   refinement flow, whose reset also clears the trackers. *)
let view name (d : _ Designs.Design.t) tw =
  let sqnr = Stats.Sqnr.create () and div = ref 0.0 and vcd_text = ref "" in
  let probe = Sim.Env.find_exn d.env d.probe in
  let observe () =
    let fx = Sim.Signal.peek_fx probe and fl = Sim.Signal.peek_fl probe in
    Stats.Sqnr.add sqnr ~reference:fl ~actual:fx;
    let e = Float.abs (fl -. fx) in
    if e > !div then div := e
  in
  let run () =
    let vcd = Sim.Vcd.create () in
    List.iter (Sim.Vcd.probe vcd) d.watch;
    Sim.Vcd.start ~date:("fxrefine conformance: " ^ name) vcd;
    Sim.Engine.run d.env ~cycles:d.cycles (fun c ->
        if d.step c then observe ();
        if c < vcd_cycles then Sim.Vcd.sample vcd ~time:c);
    vcd_text := Sim.Vcd.contents vcd
  in
  let reset () =
    d.reset ();
    Stats.Sqnr.reset sqnr;
    div := 0.0
  in
  {
    env = d.env;
    workload = name;
    probe = d.probe;
    run;
    graph = tw.graph;
    extract_graph = Some (fun () -> Designs.Design.extract d);
    divergence_bound = tw.bound;
    max_divergence = (fun () -> !div);
    sqnr;
    predicted_sqnr_db = Option.map (fun p () -> p sqnr) tw.predict;
    sqnr_tolerance_db = tw.sqnr_tol;
    stat_tolerance = tw.stat_tol;
    design =
      (if tw.refine then Some { Refine.Flow.env = d.env; reset; run }
       else None);
    vcd = (fun () -> !vcd_text);
  }

(* the quantization step of signal [name]'s declared type *)
let step_of (d : _ Designs.Design.t) name =
  let s = Sim.Env.find_exn d.env name in
  Fixpt.Dtype.step (Option.get (Sim.Signal.dtype s))

(* Worst-case error amplification of a CORDIC x/y chain:
   prod (1 + 2^-i) over the iterations. *)
let cordic_amplification iters =
  let a = ref 1.0 in
  for i = 0 to iters - 1 do
    a := !a *. (1.0 +. (2.0 ** Float.of_int (-i)))
  done;
  !a

(* --- FIR: loop-free, fully analysable ---------------------------------- *)

let fir () =
  let d = Designs.Fir.conformance () in
  let coefs = Designs.Fir.conformance_coefs in
  let qx = step_of d "x" and qacc = step_of d d.probe in
  (* input quantization through every tap, plus one accumulator cast per
     chain stage (the products land on the accumulator grid here, so the
     acc terms are pure margin) *)
  let bound =
    (Dsp.Fir.worst_case_gain coefs *. qx /. 2.0) +. (3.0 *. qacc /. 2.0)
  in
  let predict sqnr =
    let n = Stats.Sqnr.count sqnr in
    if n = 0 then Float.neg_infinity
    else
      let p_sig = Stats.Sqnr.signal_energy sqnr /. Float.of_int n in
      let p_noise =
        Array.fold_left
          (fun acc c -> acc +. (c *. c *. qx *. qx /. 12.0))
          (3.0 *. qacc *. qacc /. 12.0)
          coefs
      in
      10.0 *. Float.log10 (p_sig /. p_noise)
  in
  view "fir" d
    {
      graph = Some (Designs.Design.extract (Designs.Fir.conformance ()));
      bound = Some bound;
      predict = Some predict;
      sqnr_tol = 6.0;
      stat_tol = 0.05;
      refine = true;
    }

(* --- LMS equalizer: the motivational example --------------------------- *)

let lms () =
  (* no [b.range]: the analytical twin must explode on the adaptation
     loop (b, w, ...), exactly as the paper's first iteration reports;
     the bounded feed-forward part (x, d, c, v) stays comparable.  The
     graph is the same for any stimulus length, so the twin's instance
     draws one symbol. *)
  view "lms"
    (Designs.Lms.build ~n_symbols:1200 ())
    {
      twin with
      graph = Some (Designs.Design.extract (Designs.Lms.build ~n_symbols:1 ()));
      refine = true;
    }

(* --- CORDIC rotator: deep feed-forward --------------------------------- *)

let cordic () =
  let d = Designs.Cordic.conformance () in
  let iters = Designs.Cordic.conformance_iters in
  (* every stage casts x and y once (≤ step/2 each) and the per-stage
     amplification is (1 + 2^-i); decisions are fixed-point-steered, so
     the float reference follows the same rotation directions *)
  let bound =
    cordic_amplification iters *. Float.of_int (iters + 1)
    *. step_of d d.probe /. 2.0 *. 1.5
  in
  view "cordic" d { twin with bound = Some bound; stat_tol = 0.1 }

(* --- the feedback loops: no closed-form bound --------------------------- *)

let timing () =
  view "timing"
    (Designs.Timing.build ~n_symbols:700 ())
    { twin with refine = true }

let sync () = view "sync" (Designs.Sync.build ()) { twin with refine = true }

(* --- DDC: NCO + CORDIC mixer + CIC decimators -------------------------- *)

let ddc () =
  let d = Designs.Ddc.conformance () in
  let iters = Dsp.Ddc.cordic_iters in
  (* the only cast is the input: its ≤ qx/2 error is scaled by 1/K,
     amplified by the CORDIC chain, then summed by the CIC whose l1
     gain is rate^order (all-positive impulse response) *)
  let bound =
    step_of d "x" /. 2.0 /. Dsp.Cordic.gain iters
    *. cordic_amplification iters
    *. (Float.of_int Designs.Ddc.rate ** Float.of_int Designs.Ddc.order)
    *. 1.25
  in
  view "ddc" d { twin with bound = Some bound; stat_tol = 0.75 }

let all =
  [
    { name = "fir"; build = fir };
    { name = "lms"; build = lms };
    { name = "cordic"; build = cordic };
    { name = "timing"; build = timing };
    { name = "sync"; build = sync };
    { name = "ddc"; build = ddc };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
