(* The design catalogue's extracted flowgraphs, pinned: the MD5 of each
   graph's canonical JSON.  Any change to how a design is built (its
   signals, types, ranges, stimulus at cycle 0 or step body) moves a
   digest, so a refactor of the builders must leave every pin as it
   is. *)

open Fixrefine

let md5 g = Digest.to_hex (Digest.string (Sfg.Graph.canonical_json g))

let workload_graph name =
  let w = Option.get (Oracle.Workloads.find name) in
  let b = w.Oracle.Workloads.build () in
  (Option.get b.Oracle.Workloads.extract_graph) ()

let workload_pins =
  [
    ("fir", "1129ccd720df442e4a09f6110a003304");
    ("lms", "7f3b6e5c644506e13aa15fef1b22fb8d");
    ("cordic", "7d09d279405ce03c067e426aa86db31f");
    ("timing", "145dd6b709fff203581b149d9e1dac29");
    ("sync", "c7c71b132c29a73971be9c67c645a2f0");
    ("ddc", "0df5de36f83ec05b4e0914b433be6d9a");
  ]

let test_workload_graphs_pinned () =
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string) name digest (md5 (workload_graph name)))
    workload_pins

let test_sweep_fir_graph_pinned () =
  List.iter
    (fun n ->
      let w = Sweep.Workload.fir ~n () in
      let inst = w.Sweep.Workload.make_instance () in
      let ce = Option.get inst.Sweep.Workload.compiled in
      Alcotest.(check string)
        (Printf.sprintf "sweep fir, n=%d" n)
        "16688d057de126d380f256b99ae8d179"
        (md5 (ce.Refine.Eval.extract ())))
    [ 64; 512 ]

(* Both synchronizer loops carry §6.1's knowledge-based ranges and the
   annotated input, whoever builds them (the CLI's timing command used
   to set only three of the five). *)
let test_knowledge_ranges () =
  let annotated (d : _ Designs.Design.t) =
    List.filter_map
      (fun s ->
        Option.map
          (fun iv -> (Sim.Signal.name s, Interval.to_string iv))
          (Sim.Signal.explicit_range s))
      (Sim.Env.signals d.env)
    |> List.sort compare
  in
  let pair = Alcotest.(list (pair string string)) in
  let common =
    [
      ("in", "[-1.6, 1.6]");
      ("ip_out", "[-2, 2]");
      ("lf_lferr", "[-0.25, 0.25]");
      ("nco_mu", "[0, 1]");
      ("out", "[-2, 2]");
    ]
  in
  let timing = Designs.Timing.build ~n_symbols:10 ~seed:11 () in
  Alcotest.check pair "Fig. 5 loop"
    (List.sort compare (("ted_err", "[-4, 4]") :: common))
    (annotated timing);
  let input = Dsp.Synchronizer.input_signal timing.parts.sy in
  Alcotest.(check bool)
    "saturating input" true
    (Fixpt.Overflow_mode.is_saturating
       (Fixpt.Dtype.overflow (Option.get (Sim.Signal.dtype input))));
  Alcotest.check pair "ML loop"
    (List.sort compare
       (("ip_dout", "[-4, 4]") :: ("mlted_err", "[-4, 4]") :: common))
    (annotated (Designs.Sync.build ~n_symbols:10 ()))

(* The FFT design of both architectures: its probe, its stage count,
   and a reset-then-run that repeats every signal's monitors bit for
   bit. *)
let test_fft () =
  List.iter
    (fun scale ->
      let d = Designs.Fft.build ~scale in
      let what = if scale then "scaled" else "unscaled" in
      Alcotest.(check string) (what ^ " probe") "fft_re4[0]" d.probe;
      Alcotest.(check int)
        (what ^ " stages") 4
        (Dsp.Fft.stage_count d.parts.Designs.Fft.fft);
      let snapshot () =
        d.reset ();
        d.run ();
        List.map
          (fun s ->
            let e = Stats.Err_stats.produced (Sim.Signal.err_stats s) in
            ( Sim.Signal.name s,
              List.map Int64.bits_of_float
                [
                  Sim.Signal.peek_fx s;
                  Sim.Signal.peek_fl s;
                  Stats.Running.mean e;
                  Stats.Running.stddev e;
                ],
              Sim.Signal.stat_range s ))
          (Sim.Env.signals d.env)
      in
      let first = snapshot () in
      Alcotest.(check bool) (what ^ " run repeats") true (first = snapshot ()))
    [ false; true ]

(* §6.1's NCO-phase overrule: the error() model on [nco_eta] and the
   config that carries the same half-width, at the timing LSB. *)
let test_sync_overrule () =
  let d = Designs.Sync.build ~n_symbols:10 () in
  let config = Designs.Sync.overrule_nco_phase d Refine.Flow.default_config in
  let h = Refine.Lsb_rules.error_halfwidth_of_lsb (-8) in
  Alcotest.(check (option (float 0.0)))
    "nco_eta error()" (Some h)
    (Sim.Signal.error_injected (Sim.Env.find_exn d.env "nco_eta"));
  Alcotest.(check int) "auto_error_lsb" (-8) config.Refine.Flow.auto_error_lsb;
  Alcotest.(check (list (pair string (float 0.0))))
    "error_overrides" [ ("nco_eta", h) ] config.Refine.Flow.error_overrides;
  let timing = Designs.Timing.config Refine.Flow.default_config in
  Alcotest.(check int) "timing config" (-8) timing.Refine.Flow.auto_error_lsb

let suite =
  ( "designs",
    [
      Alcotest.test_case "workload graphs pinned" `Quick
        test_workload_graphs_pinned;
      Alcotest.test_case "sweep fir graph pinned" `Quick
        test_sweep_fir_graph_pinned;
      Alcotest.test_case "loops carry the knowledge ranges" `Quick
        test_knowledge_ranges;
      Alcotest.test_case "fft design, both scales" `Quick test_fft;
      Alcotest.test_case "sync NCO-phase overrule" `Quick test_sync_overrule;
    ] )
