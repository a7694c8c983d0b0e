(* The paper's motivational example (§3, Fig. 1; Tables 1 and 2): the
   simplified symbol-spaced adaptive LMS equalizer.

   Reproduces the evaluation narrative:
   - iteration 1: range propagation explodes on the feedback signals
     (b, w) — exactly the §4.1 failure the statistic-based monitor is
     blind to;
   - iteration 2: after b.range(-0.2, 0.2), every MSB resolves; the
     range()-annotated signals are decided saturated "(st)";
   - LSB: with the input quantized <7,5,tc>, one pass of error
     monitoring places every LSB; the final all-quantized run confirms
     stability, with the SQNR cost of the refinement printed last.

   Run with:  dune exec examples/lms_equalizer.exe *)

open Fixrefine

let () =
  (* the catalogue's equalizer: 4000 symbols, only the input quantized
     (a partial type definition, as an A/D converter would be — the
     paper's <7,5,tc>), its range known from the channel (the paper's
     x.range(-1.5, 1.5)) *)
  let d = Designs.Lms.build () in
  let { Designs.Lms.sent; output; _ } = d.Designs.Design.parts in
  let design = Designs.Design.flow d in
  let env = design.Refine.Flow.env in

  (* --- iteration 1 by hand, to show the explosion (Table 1, top) ---- *)
  design.Refine.Flow.reset ();
  design.Refine.Flow.run ();
  Format.printf "=== Table 1 — MSB analysis, 1st iteration ===@.";
  Refine.Report.print_msb env;
  let exploded = Refine.Msb_rules.exploded_signals env in
  Format.printf "@.exploded by range propagation: %s@.@."
    (String.concat ", " (List.map Sim.Signal.name exploded));

  (* --- the flow drives the rest: annotation, re-run, LSB, types ----- *)
  let result = Refine.Flow.refine ~sqnr_signal:"v[3]" design in

  Format.printf "=== Table 1 — MSB analysis, final iteration ===@.";
  Refine.Report.print_msb env;
  Format.printf "@.=== Table 2 — LSB analysis ===@.";
  Refine.Report.print_lsb env;

  Format.printf "@.=== derived types ===@.";
  List.iter
    (fun (name, dt) ->
      Format.printf "  %-6s %s@." name (Fixpt.Dtype.to_string dt))
    result.Refine.Flow.types;

  Format.printf "@.=== flow log (Fig. 4) ===@.";
  List.iter
    (fun it -> Format.printf "%a@." Refine.Flow.pp_iteration it)
    result.Refine.Flow.iterations;
  Format.printf
    "MSB resolved in %d iterations, LSB in %d; %d monitored runs total@."
    result.Refine.Flow.msb_iterations result.Refine.Flow.lsb_iterations
    result.Refine.Flow.simulation_runs;
  (match
     (result.Refine.Flow.sqnr_before_db, result.Refine.Flow.sqnr_after_db)
   with
  | Some b, Some a ->
      Format.printf
        "SQNR at v[3]: %.1f dB (input quantized only) -> %.1f dB (all quantized)@."
        b a
  | _ -> ());

  (* --- does the refined equalizer still equalize? ------------------- *)
  let decided = Array.of_list (Sim.Channel.recorded output) in
  let ser = Dsp.Pam.best_ser ~skip:100 ~sent ~decided () in
  Format.printf "symbol error rate after refinement: %.4f (%d decisions)@."
    ser (Array.length decided)
