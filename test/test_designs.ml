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

let suite =
  ( "designs",
    [
      Alcotest.test_case "workload graphs pinned" `Quick
        test_workload_graphs_pinned;
      Alcotest.test_case "sweep fir graph pinned" `Quick
        test_sweep_fir_graph_pinned;
      Alcotest.test_case "loops carry the knowledge ranges" `Quick
        test_knowledge_ranges;
    ] )
