(* Refining a cable-modem-style digital down-converter front end — the
   application class the paper's introduction motivates.

   CORDIC quadrature mixer + two order-2 CIC decimators (R = 4), driven
   by a noisy IF tone.  The refinement flow meets all three §5.1
   archetypes in one design: bounded feed-forward CORDIC stages, the
   modulo-1 NCO phase, and the wrap-by-design CIC integrators.  The
   design is the catalogue's front end (lib/designs/ddc.ml), the row
   the summary experiment refines: the CIC integrators come designer-
   typed, because no statistical rule gives the right answer for them.

   Run with:  dune exec examples/ddc_frontend.exe *)

open Fixrefine

(* the front end's decimation rate (the catalogue's conformance DDC
   decimates by 8) *)
let rate = 4

let () =
  let d = Designs.Ddc.frontend () in
  let env = d.Designs.Design.env in
  let result =
    Refine.Flow.refine ~sqnr_signal:d.Designs.Design.probe
      (Designs.Design.flow d)
  in

  Format.printf "=== DDC refinement summary ===@.";
  Format.printf "%s@."
    (Refine.Report.summary env result.Refine.Flow.msb_decisions
       result.Refine.Flow.lsb_decisions);
  List.iter
    (fun it -> Format.printf "%a@." Refine.Flow.pp_iteration it)
    result.Refine.Flow.iterations;
  (match
     (result.Refine.Flow.sqnr_before_db, result.Refine.Flow.sqnr_after_db)
   with
  | Some b, Some a -> Format.printf "SQNR at I: %.1f dB -> %.1f dB@." b a
  | _ -> ());

  (* the three §5.1 archetypes, as decided by the rules *)
  Format.printf "@.=== archetype check ===@.";
  let show name =
    let s = Sim.Env.find_exn env name in
    let d = Refine.Msb_rules.decide s in
    Format.printf "  %-14s case=%-16s msb=%d mode=%s@." name
      (Refine.Decision.msb_case_to_string d.Refine.Decision.case)
      d.Refine.Decision.msb_pos
      (Fixpt.Overflow_mode.to_string d.Refine.Decision.mode)
  in
  show "ddc_rot_x[7]" (* bounded feed-forward CORDIC stage *);
  show "ddc_phase" (* modulo-1 NCO phase, knowledge-bounded *);
  show "ddc_ci_i[1]" (* CIC integrator: the wrap-by-design accumulator *);
  let integrator = Sim.Env.find_exn env "ddc_ci_i[1]" in
  Format.printf
    "(the CIC integrator is the one §5.1 case where the right designer@.";
  Format.printf
    " answer is wrap-around at the Hogenauer width — %d bits here)@."
    (Fixpt.Dtype.n (Option.get (Sim.Signal.dtype integrator)));

  (* does the refined front end still down-convert? *)
  let i_sig = Sim.Env.find_exn env d.Designs.Design.probe in
  Format.printf "@.I output settled near %.2f (expected ~%.2f = A/2 * R^N)@."
    (Sim.Signal.peek_fx i_sig)
    (0.7 /. 2.0 *. (Float.of_int rate ** Float.of_int Designs.Ddc.order))
