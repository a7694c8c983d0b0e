(* Refining a CORDIC rotator — a deep feed-forward workload, structurally
   unlike the paper's two feedback examples.

   Interesting refinement behaviour to observe:
   - the z (angle) chain shrinks stage by stage (each iteration halves
     the residual angle), so the MSB analysis awards decreasing integer
     weights down the pipeline;
   - the x/y chains grow by the CORDIC gain (~1.647) and need one extra
     integer bit mid-pipeline;
   - the quantization noise of early stages is amplified by later
     stages, so the σ-rule gives the early stages finer LSBs.

   The design is the catalogue's rotator (lib/designs/cordic.ml), the
   one [fxrefine cordic] refines.  The example cross-checks the refined
   rotator against the exact rotation and reports the angle-domain
   accuracy. *)

open Fixrefine

let iters = 12

let () =
  (* unit-circle vectors with |z| <= 1.5 through 12-bit inputs *)
  let d = Designs.Cordic.rotator ~n:2000 ~seed:4 () in
  let env = d.Designs.Design.env and cordic = d.Designs.Design.parts in
  let probe = d.Designs.Design.probe in
  let result =
    Refine.Flow.refine ~sqnr_signal:probe (Designs.Design.flow d)
  in

  Format.printf "=== CORDIC MSB analysis ===@.";
  Refine.Report.print_msb env;
  Format.printf "@.=== CORDIC LSB analysis ===@.";
  Refine.Report.print_lsb env;
  Format.printf "@.MSB iterations %d, LSB iterations %d, runs %d@."
    result.Refine.Flow.msb_iterations result.Refine.Flow.lsb_iterations
    result.Refine.Flow.simulation_runs;
  (match
     (result.Refine.Flow.sqnr_before_db, result.Refine.Flow.sqnr_after_db)
   with
  | Some b, Some a ->
      Format.printf "SQNR at %s: %.1f dB -> %.1f dB@." probe b a
  | _ -> ());

  (* accuracy of the refined rotator against the exact rotation, on 500
     vectors of its own through the refined input signals *)
  let rng = Stats.Rng.create ~seed:4 in
  let input name = Sim.Env.find_exn env name in
  let xin = input "xin" and yin = input "yin" and zin = input "zin" in
  let sq = Stats.Sqnr.create () in
  let max_err = ref 0.0 in
  for _ = 1 to 500 do
    let phi = Stats.Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi) in
    let z = Stats.Rng.uniform rng ~lo:(-1.5) ~hi:1.5 in
    let x = cos phi and y = sin phi in
    let open Sim.Ops in
    xin <-- Sim.Value.of_float x;
    yin <-- Sim.Value.of_float y;
    zin <-- Sim.Value.of_float z;
    let xo, _yo = Dsp.Cordic.rotate cordic ~x:!!xin ~y:!!yin ~z:!!zin in
    let xr, _yr = Dsp.Cordic.reference ~iters ~x ~y ~z in
    Stats.Sqnr.add sq ~reference:xr ~actual:(Sim.Value.fx xo);
    max_err := Float.max !max_err (Float.abs (xr -. Sim.Value.fx xo))
  done;
  Format.printf
    "refined rotator vs exact rotation: %.1f dB, max |err| = %.2e@."
    (Stats.Sqnr.db sq) !max_err
