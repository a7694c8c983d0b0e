(* Refining a 16-point radix-2 FFT — the classic bit-growth workload.

   Shows the per-stage MSB profile the refinement derives for the two
   architectures (unscaled butterflies vs 1/2-per-stage scaling) and
   checks the refined transform against the exact DFT.  The design is
   the catalogue's (lib/designs/fft.ml), the one the ablate-fft-scaling
   experiment refines.

   Run with:  dune exec examples/fft_refine.exe *)

open Fixrefine
module D = Designs.Design

(* the largest MSB the refinement's monitors saw in each stage *)
let stage_profile fft =
  List.init
    (Dsp.Fft.stage_count fft + 1)
    (fun s ->
      List.fold_left
        (fun acc sg ->
          match Refine.Msb_rules.msb_of_range (Sim.Signal.stat_range sg) with
          | Some m -> max acc m
          | None -> acc)
        min_int
        (Dsp.Fft.stage_signals fft s))

let () =
  List.iter
    (fun scale ->
      let d = Designs.Fft.build ~scale in
      let { Designs.Fft.fft; stimulus } = d.D.parts in
      let result = Refine.Flow.refine ~sqnr_signal:d.D.probe (D.flow d) in
      Format.printf "=== %s ===@."
        (if scale then "1/2-per-stage scaling" else "unscaled butterflies");
      Format.printf "stage MSB profile: %s@."
        (String.concat " -> " (List.map string_of_int (stage_profile fft)));
      let bits =
        List.fold_left (fun a (_, dt) -> a + Fixpt.Dtype.n dt) 0
          result.Refine.Flow.types
      in
      Format.printf "total bits: %d;  monitored runs: %d@." bits
        result.Refine.Flow.simulation_runs;
      (match result.Refine.Flow.sqnr_after_db with
      | Some v -> Format.printf "SQNR at %s: %.1f dB@." d.D.probe v
      | None -> ());
      (* accuracy of one refined transform against the exact DFT *)
      let n = Dsp.Fft.size fft in
      let open Sim.Ops in
      let input = Array.init n (fun i -> (cst stimulus.(i), cst 0.0)) in
      let out = Dsp.Fft.transform fft input in
      let reference =
        Dsp.Fft.reference ~scale (Array.init n (fun i -> (stimulus.(i), 0.0)))
      in
      let sq = Stats.Sqnr.create () in
      Array.iteri
        (fun k (r, _) ->
          Stats.Sqnr.add sq ~reference:(fst reference.(k))
            ~actual:(Sim.Value.fx r))
        out;
      Format.printf "one refined transform vs exact DFT: %.1f dB@.@."
        (Stats.Sqnr.db sq))
    [ false; true ]
