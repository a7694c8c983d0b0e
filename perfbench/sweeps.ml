(* sweep-fir and sweep-sync: repeated grid sweeps through
   [Sweep.Pool.run ~jobs:1] with no cache and no checkpoint.

   sweep-fir runs the compiled candidate path (extract -> compile ->
   execute); sweep-sync runs the interpreter (the workload has
   [compiled = None]).  A pass is one grid over uniform f x a seeded
   set of stimulus seeds — one large wave. *)

open Common

type spec = {
  name : string;
  workload : unit -> Sweep.Workload.t;
  f_min : int;
  f_max : int;
  stim_seeds : int -> int list;  (** from the benchmark seed *)
  pinned : (int -> string option) option;
      (** [Some f]: the check is the report digest [f seed] pinned for
          the benchmark seed; [None]: re-evaluation on the interpreter *)
}

(* sweep-sync draws its stimulus seeds from one of [sync_sets] pinned
   workload seeds, so every input it can run has a pinned digest. *)
let sync_sets = 64
let sync_wseed seed = ((seed mod sync_sets) + sync_sets) mod sync_sets

let load_pins path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' (String.trim l) with
          | [ k; d ] -> Option.map (fun k -> (k, d)) (int_of_string_opt k)
          | _ -> None)
        (String.split_on_char '\n' text)

let fir =
  {
    name = "sweep-fir";
    workload = (fun () -> Sweep.Workload.fir ~n:512 ());
    f_min = 2;
    f_max = 17;
    stim_seeds =
      (fun seed ->
        distinct_ints (Random.State.make [| seed; 0xf1 |]) ~n:64
          ~bound:1_000_000);
    pinned = None;
  }

let sync ~pins =
  let table = lazy (load_pins pins) in
  {
    name = "sweep-sync";
    workload = (fun () -> Sweep.Workload.sync ~n_symbols:160 ());
    f_min = 6;
    f_max = 13;
    stim_seeds =
      (fun seed ->
        distinct_ints
          (Random.State.make [| sync_wseed seed; 0x5c |])
          ~n:32 ~bound:1_000_000);
    pinned =
      Some (fun seed -> List.assoc_opt (sync_wseed seed) (Lazy.force table));
  }

let generator spec (w : Sweep.Workload.t) seeds =
  Sweep.Generator.grid ~specs:w.Sweep.Workload.specs ~f_min:spec.f_min
    ~f_max:spec.f_max ~seeds

let digest s = Digest.to_hex (Digest.string s)

(* One pass: sweep to completion and render the report, as the CLI
   does. *)
let pass ?on_wave spec seeds (w : Sweep.Workload.t) () =
  let generator = generator spec w seeds in
  let r = Sweep.Pool.run ~jobs:1 ?on_wave ~workload:w ~generator () in
  (r, Sweep.Report.to_json r)

(* Re-evaluate a seeded sample of the pass's candidates on the
   interpreter, each on a fresh instance: metrics must match bit for
   bit. *)
let interpreter_check ~seed spec (r : Sweep.Report.t) =
  let w = spec.workload () in
  let picked =
    sample (Random.State.make [| seed; 0xc4 |]) ~k:16 r.Sweep.Report.entries
  in
  List.fold_left
    (fun bad (e : Sweep.Report.entry) ->
      let c = e.Sweep.Report.candidate in
      let inst = w.Sweep.Workload.make_instance () in
      inst.Sweep.Workload.set_seed c.Sweep.Candidate.stim_seed;
      let m =
        Refine.Eval.evaluate
          ~assigns:(Sweep.Candidate.to_dtypes c)
          ~probe:w.Sweep.Workload.probe inst.Sweep.Workload.design
      in
      if same_metrics m e.Sweep.Report.metrics then bad
      else begin
        Printf.printf "check: candidate #%d differs from the interpreter\n"
          c.Sweep.Candidate.id;
        bad + 1
      end)
    0 picked
  |> fun bad -> (List.length picked, bad)

(* Workload + instance + generator construction, [n] samples, each the
   mean of 20 constructions (one takes a few microseconds, near the
   clock's resolution); raw seconds. *)
let setup_times spec seeds n =
  List.init n (fun _ ->
      let (), dt =
        time (fun () ->
            for _ = 1 to 20 do
              let w = spec.workload () in
              let inst = w.Sweep.Workload.make_instance () in
              ignore (Sys.opaque_identity inst);
              ignore (Sys.opaque_identity (generator spec w seeds))
            done)
      in
      dt /. 20.0)

let run_e2e ~spec ~seed ~seconds ~run_dir =
  let seeds = spec.stim_seeds seed in
  let refs = ref (host_samples 5) in
  let setups = ref (setup_times spec seeds 3) in
  let stamps = Probe.buf () in
  let w = Probe.reset_stamps stamps (spec.workload ()) in
  (* untimed warm-up: the quantizer memo fills, the heap grows *)
  let r0, j0 = pass spec seeds w () in
  let d0 = digest j0 in
  let per_pass =
    List.length r0.Sweep.Report.entries + List.length r0.Sweep.Report.failures
  in
  (* the window: passes, with the host and the set-up sampled between
     them, so that both span the same stretch of host speed *)
  let lat = ref [] and raw_s = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let t_start = now () in
  while now () -. t_start < seconds do
    refs := host_samples 3 @ !refs;
    setups := setup_times spec seeds 3 @ !setups;
    Probe.clear stamps;
    let wave_end = ref 0.0 in
    let (r, j), dt =
      time (pass ~on_wave:(fun _ -> wave_end := now ()) spec seeds w)
    in
    raw_s := dt :: !raw_s;
    (* candidate i's latency: from its reset to the next one (the
       last: to the end of the wave) *)
    let st = Array.sub stamps.Probe.a 0 stamps.Probe.n in
    lat :=
      List.init (Array.length st) (fun i ->
          let next =
            if i + 1 < Array.length st then st.(i + 1) else !wave_end
          in
          next -. st.(i))
      :: !lat;
    let n =
      List.length r.Sweep.Report.entries + List.length r.Sweep.Report.failures
    in
    attempted := !attempted + n;
    failed := !failed + List.length r.Sweep.Report.failures;
    if not (String.equal (digest j) d0) then failed := !failed + n
  done;
  let f = host_factor !refs in
  (* output checks, outside the window *)
  let checked, bad, check_note =
    match Option.map (fun f -> f seed) spec.pinned with
    | Some (Some pin) ->
        ( 1,
          (if String.equal pin d0 then 0 else 1),
          Printf.sprintf "check: report digest %s, pinned %s (workload seed %d)"
            d0 pin (sync_wseed seed) )
    | Some None ->
        ( 1,
          1,
          "check: no pinned digest for workload seed "
          ^ string_of_int (sync_wseed seed) )
    | None ->
        let n, bad = interpreter_check ~seed spec r0 in
        ( n,
          bad,
          Printf.sprintf
            "check: %d sampled candidates re-evaluated on the interpreter, %d \
             differ"
            n bad )
  in
  let report_path = Filename.concat run_dir "report.json" in
  Out_channel.with_open_bin report_path (fun oc -> output_string oc j0);
  let n_lat = List.fold_left (fun n l -> n + List.length l) 0 !lat in
  let pass_med = median !raw_s /. f in
  let passes = List.length !raw_s in
  let raw_window = List.fold_left ( +. ) 0.0 !raw_s in
  let attempted = !attempted + checked and failed = !failed + bad in
  {
    attempted;
    failed;
    notes =
      [
        Printf.sprintf
          "%s: %d candidates/pass (f %d..%d x %d stimulus seeds), %d passes, \
           %.3f s of passes"
          spec.name per_pass spec.f_min spec.f_max (List.length seeds) passes
          raw_window;
        Printf.sprintf
          "raw: %.1f candidates/s over the window; host factor %.3f from %d \
           reference samples"
          (float_of_int (passes * per_pass) /. raw_window)
          f (List.length !refs);
        Printf.sprintf
          "job = one candidate evaluation: %d latency samples, percentiles \
           taken per group of >= 1000 and the median reported%s"
          n_lat
          (if percentile_valid ~n:n_lat 0.99 then ""
           else " (p99 NOT valid: < 1000 samples)");
        check_note;
        "run dir filesystem: " ^ fs_type run_dir;
      ];
    metrics =
      Layers.fill Layers.end_to_end
        [
          ("setup_s", median !setups /. f);
          ("cand_per_s", float_of_int per_pass /. pass_med);
          ("jobs_per_s", float_of_int per_pass /. pass_med);
          ("job_p50_ms", 1e3 *. grouped_percentile !lat 0.5 /. f);
          ("job_p99_ms", 1e3 *. grouped_percentile !lat 0.99 /. f);
          ("peak_rss_mb", vm_hwm_mb 0);
          ("disk_mb", mb (du report_path));
          ("verify_s", pass_med);
          ( "decided_frac",
            float_of_int (attempted - failed) /. float_of_int attempted );
        ];
  }

(* Exact allocation counts of one untraced pass. *)
let counting_pass spec seeds w =
  let g0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let r, _ = pass spec seeds w () in
  let mw1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let n = List.length r.Sweep.Report.entries in
  ( (mw1 -. mw0) /. float_of_int n,
    float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )

let run_traced ~spec ~seed ~seconds =
  let seeds = spec.stim_seeds seed in
  let w = spec.workload () in
  ignore (pass spec seeds w ());
  let mw1, gc1 = counting_pass spec seeds w in
  let mw2, gc2 = counting_pass spec seeds w in
  (* untraced and traced passes alternate, so host drift hits both
     sides of the overhead alike *)
  let p = Probe.create () in
  let tw = Probe.wrap_workload p w in
  let restore = ref [] and extract = ref [] and run = ref [] in
  let compile = ref [] and exec = ref [] and instrs = ref [] in
  let generate = ref [] and report = ref [] in
  let plain_s = ref 0.0 and traced_s = ref 0.0 in
  let traced_pass () =
    Probe.clear_all p;
    Trace.Spans.reset ();
    Trace.Spans.set_enabled true;
    let t0 = now () in
    let r =
      Sweep.Pool.run ~jobs:1 ~workload:tw
        ~generator:(Probe.wrap_generator p (generator spec tw seeds))
        ()
    in
    (* report_ms: Report.make after the generator's final (empty)
       wave, plus rendering *)
    ignore (Sys.opaque_identity (Sweep.Report.to_json r));
    let t_json = now () in
    Trace.Spans.set_enabled false;
    traced_s := !traced_s +. (t_json -. t0);
    let spans = Trace.Spans.drain () in
    let cands = Probe.spans_named ~cat:"sweep" ~prefix:"candidate" spans in
    restore := Probe.restore_durations p cands @ !restore;
    extract := Probe.to_list p.Probe.extract_dur @ !extract;
    run := Probe.to_list p.Probe.run_dur @ !run;
    let cs = Probe.spans_named ~cat:"compile" ~prefix:"compile" spans in
    compile := Probe.durations cs @ !compile;
    instrs := mean (List.map Probe.instrs_of cs) :: !instrs;
    exec :=
      Probe.durations (Probe.spans_named ~cat:"compile" ~prefix:"exec" spans)
      @ !exec;
    generate := Probe.sum p.Probe.next_dur :: !generate;
    report := (t_json -. p.Probe.next_end) :: !report
  in
  let t_start = now () and passes = ref 0 in
  while !passes < 2 || now () -. t_start < seconds do
    plain_s := !plain_s +. snd (time (pass spec seeds w));
    traced_pass ();
    incr passes
  done;
  let us xs = 1e6 *. mean xs and ms xs = 1e3 *. mean xs in
  (* two passes at least: compare the two newest *)
  let i1, i2 =
    match !instrs with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let exact1 = [ ("sweep.minor_words_per_cand", mw1); ("compile.instrs", i1) ] in
  let exact2 = [ ("sweep.minor_words_per_cand", mw2); ("compile.instrs", i2) ] in
  let mismatches, notes = Layers.exact_check exact1 exact2 in
  {
    attempted = 1;
    failed = 0;
    notes =
      Printf.sprintf "%s traced: %d stimulus seeds; major GCs per pass %s / %s"
        spec.name (List.length seeds) (num gc1) (num gc2)
      :: notes;
    metrics =
      Layers.fill Layers.per_layer
        [
          ("sim.restore_us", us !restore);
          ("sim.extract_us", us !extract);
          ("sim.run_us", us !run);
          ("compile.compile_us", us !compile);
          ("compile.exec_us", us !exec);
          ("compile.instrs", mean !instrs);
          ("sweep.generate_ms", ms !generate);
          ("sweep.report_ms", ms !report);
          ("sweep.minor_words_per_cand", mw1);
          ("sweep.major_gcs", gc1);
          ("trace.overhead_pct", 100.0 *. (!traced_s -. !plain_s) /. !plain_s);
          ("trace.exact_mismatches", float_of_int mismatches);
        ];
  }
