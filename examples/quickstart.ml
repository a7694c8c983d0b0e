(* Quickstart: refine a small FIR low-pass from floating point to fixed
   point in one call.

   The design is the catalogue's low-pass (lib/designs/fir.ml, the
   place to see how a design is written): a 5-tap FIR fed by 3000
   noisy PAM samples, with only its input quantized to <8,6,tc> — the
   "partial type definition", say an A/D converter.  The refinement
   flow derives every other signal type; the program prints the
   paper-style MSB/LSB analysis tables and the derived types.

   Run with:  dune exec examples/quickstart.exe *)

open Fixrefine

let () =
  let d = Designs.Fir.lowpass () in
  let env = d.Designs.Design.env in
  let result =
    Refine.Flow.refine ~sqnr_signal:d.Designs.Design.probe
      (Designs.Design.flow d)
  in
  Format.printf "=== MSB analysis (Table 1 layout) ===@.";
  Refine.Report.print_msb env;
  Format.printf "@.=== LSB analysis (Table 2 layout) ===@.";
  Refine.Report.print_lsb env;
  Format.printf "@.=== derived types ===@.";
  List.iter
    (fun (name, dt) ->
      Format.printf "  %-8s %s@." name (Fixpt.Dtype.to_string dt))
    result.Refine.Flow.types;
  Format.printf "@.iterations: %d MSB + %d LSB, %d monitored runs@."
    result.Refine.Flow.msb_iterations result.Refine.Flow.lsb_iterations
    result.Refine.Flow.simulation_runs;
  (match
     (result.Refine.Flow.sqnr_before_db, result.Refine.Flow.sqnr_after_db)
   with
  | Some b, Some a ->
      Format.printf "SQNR at out: %.1f dB (input quantized) -> %.1f dB (all signals)@."
        b a
  | _ -> ());
  List.iter
    (fun it -> Format.printf "%a@." Refine.Flow.pp_iteration it)
    result.Refine.Flow.iterations
