(* The complex evaluation example (§6.1, Fig. 5): fixed-point refinement
   of a PAM timing-recovery loop (interpolator + Gardner timing-error
   detector + PI loop filter + NCO): the catalogue's Fig. 5 design,
   Synchronizer ~ted:Gardner ~m:2 ~sps:2.

   The §6.1 phenomena to look for in the output:
   - the loop-filter integrator and the NCO phase are the feedback
     signals whose range propagation explodes (the paper's "2 feedback
     signals required saturation due to the MSB explosion");
   - the NCO phase is the signal whose error monitoring diverges and
     needs the error() overruling (the paper's "D signal inside of
     NCO");
   - MSB resolves in 2 iterations, LSB in 1 after the overruling;
   - the non-saturated signals carry a small MSB overhead (bits/signal)
     over the statistic-based estimate (paper: 0.22).

   Run with:  dune exec examples/timing_recovery.exe *)

open Fixrefine

let tau = 0.3 (* the catalogue's static timing offset, symbol periods *)

let () =
  let d = Designs.Timing.build ~knowledge_ranges:false () in
  let { Designs.Timing.sy; sent; output } = d.Designs.Design.parts in
  let design = Designs.Design.flow d in
  let env = design.Refine.Flow.env in
  (* first monitored run: who explodes? *)
  design.Refine.Flow.reset ();
  design.Refine.Flow.run ();
  (* the synchronizer's slicer output [dec] is declared but never
     driven: the Fig. 5 loop has no decisions channel *)
  let signals = Sim.Env.signals env in
  Format.printf "design declares %d signals, %d of them driven@.@."
    (List.length signals)
    (List.length (List.filter (fun s -> Sim.Signal.assignments s > 0) signals));
  Format.printf "=== 1st iteration: MSB explosions ===@.";
  List.iter
    (fun s -> Format.printf "  exploded: %s@." (Sim.Signal.name s))
    (Refine.Msb_rules.exploded_signals env);
  Format.printf "=== 1st iteration: LSB divergences ===@.";
  List.iter
    (fun s -> Format.printf "  diverged: %s@." (Sim.Signal.name s))
    (Refine.Lsb_rules.diverged_signals env);

  (* knowledge-based saturation choices (the paper put 5 signals in
     saturation mode beyond the 2 forced ones): bound the loop's control
     signals at their physical ranges *)
  Designs.Timing.set_knowledge_ranges sy;

  (* the paper ties the error() overruling of the NCO phase to the
     input precision: the catalogue's LSB −8 *)
  let config = Designs.Timing.config Refine.Flow.default_config in
  let result = Refine.Flow.refine ~config ~sqnr_signal:"out" design in

  Format.printf "@.=== MSB analysis (final) ===@.";
  Refine.Report.print_msb env;
  Format.printf "@.=== LSB analysis (final) ===@.";
  Refine.Report.print_lsb env;

  Format.printf "@.=== flow log ===@.";
  List.iter
    (fun it -> Format.printf "%a@." Refine.Flow.pp_iteration it)
    result.Refine.Flow.iterations;

  (* §6.1 summary numbers *)
  let msbs = result.Refine.Flow.msb_decisions in
  let saturated =
    List.filter
      (fun (d : Refine.Decision.msb) ->
        Fixpt.Overflow_mode.is_saturating d.Refine.Decision.mode)
      msbs
  in
  Format.printf "@.=== Section 6.1 summary ===@.";
  Format.printf "signals: %d, saturated: %d (%s)@." (List.length msbs)
    (List.length saturated)
    (String.concat ", "
       (List.map (fun (d : Refine.Decision.msb) -> d.Refine.Decision.signal)
          saturated));
  Format.printf "MSB overhead of propagation vs statistic: %.2f bits/signal@."
    (Refine.Msb_rules.overhead_bits_per_signal
       (List.filter
          (fun (d : Refine.Decision.msb) ->
            not (Fixpt.Overflow_mode.is_saturating d.Refine.Decision.mode))
          msbs));
  Format.printf "MSB iterations: %d, LSB iterations: %d, runs: %d@."
    result.Refine.Flow.msb_iterations result.Refine.Flow.lsb_iterations
    result.Refine.Flow.simulation_runs;
  (match
     (result.Refine.Flow.sqnr_before_db, result.Refine.Flow.sqnr_after_db)
   with
  | Some b, Some a -> Format.printf "SQNR at out: %.1f dB -> %.1f dB@." b a
  | _ -> ());

  (* does the refined loop still recover timing? *)
  let decided = Array.of_list (Sim.Channel.recorded output) in
  let ser = Dsp.Pam.best_ser ~skip:500 ~sent ~decided () in
  Format.printf "strobes: %d, decisions: %d, SER after lock: %.4f@."
    (Dsp.Synchronizer.strobes sy)
    (Array.length decided) ser;
  let nco_mu = Sim.Env.find_exn env "nco_mu" in
  Format.printf "NCO mu settled at %.3f (timing offset tau = %.2f)@."
    (Sim.Signal.peek_fx nco_mu) tau
