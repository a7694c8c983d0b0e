(* fxrefine — command-line front end to the fixed-point refinement
   library.

   Subcommands:
     equalizer  — refine the paper's LMS equalizer (Fig. 1, Tables 1-2)
     timing     — refine the PAM timing-recovery loop (Fig. 5, §6.1)
     timing-ml  — refine the closed ML-TED synchronizer (4-PAM,
                  drifting tau, MER/EVM scoring)
     cordic     — refine a CORDIC rotator
     quantize   — quantize one value through a dtype (scriptable helper)
     sfg        — analyze the extracted equalizer flowgraph, export DOT
     sweep      — parallel wordlength/stimuli exploration (multicore)
     faultsim   — run a sweep under a seeded fault-injection plan
     trace      — run one conformance workload under full tracing
     check      — the conformance oracle (--faults adds the fault gate,
                  --compiled the compiled-executor gate, --verify the
                  verification-oracle gate, --serve the cache/daemon
                  gate)
     compile    — lower workload flowgraphs to the batched flat-schedule
                  executor; equality spot check + throughput
     verify     — prove/refute no-overflow and no-limit-cycle on a
                  design's flowgraph by exhaustive/bounded bit-level
                  search; counterexamples as hex-float stimuli
     serve      — refinement daemon: sweep jobs over a Unix socket,
                  all sharing one content-addressed evaluation cache
     submit     — client for a running serve daemon (sweep/ping/
                  stats/shutdown)

   Each refinement subcommand prints the paper-style MSB/LSB tables and
   a flow summary; options control workload size, k_LSB and seeds so the
   tool doubles as the experiment driver.  The refinement and sweep
   subcommands accept --trace/--counters to capture a Chrome trace_event
   JSON and per-signal event counters of the run. *)

open Fixrefine
open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

(* --- shared report printing ------------------------------------------- *)

let print_flow_result env (result : Refine.Flow.result) =
  Format.printf "=== MSB analysis ===@.";
  Refine.Report.print_msb env;
  Format.printf "@.=== LSB analysis ===@.";
  Refine.Report.print_lsb env;
  Format.printf "@.=== flow ===@.";
  List.iter
    (fun it -> Format.printf "%a@." Refine.Flow.pp_iteration it)
    result.Refine.Flow.iterations;
  Format.printf "%s@."
    (Refine.Report.summary env result.Refine.Flow.msb_decisions
       result.Refine.Flow.lsb_decisions);
  match
    (result.Refine.Flow.sqnr_before_db, result.Refine.Flow.sqnr_after_db)
  with
  | Some b, Some a -> Format.printf "SQNR: %.1f dB -> %.1f dB@." b a
  | _ -> ()

(* --- common options ---------------------------------------------------- *)

let symbols_t =
  Arg.(value & opt int 4000 & info [ "n"; "symbols" ] ~doc:"Workload size.")

let seed_t = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Stimulus seed.")

let k_lsb_t =
  Arg.(
    value & opt float 1.0
    & info [ "k-lsb" ] ~doc:"The \\$(i,k_LSB) constant of the sigma rule.")

let verbose_t = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log actions.")

let trace_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the run to \\$(docv) (open in \
           chrome://tracing or Perfetto).")

let counters_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "counters" ] ~docv:"FILE"
        ~doc:"Write per-signal event counters JSON to \\$(docv).")

let write_text path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* Observe one refinement run: [--counters] attaches a counting sink to
   the design's environment for the whole flow (every monitored run
   contributes), [--trace] collects wall-clock phase/run spans. *)
let with_observability ~trace_file ~counters_file ~label env f =
  let ctr =
    match counters_file with
    | Some _ ->
        let c = Trace.Counters.create () in
        Sim.Env.set_sink env (Trace.Counters.sink c);
        Some c
    | None -> None
  in
  if trace_file <> None then Trace.Spans.set_enabled true;
  let r = f () in
  Sim.Env.clear_sink env;
  (match (counters_file, ctr) with
  | Some path, Some c ->
      write_text path
        (Trace.Counters.to_json
           ~meta:[ ("workload", Trace.Json.string_lit label) ]
           c);
      Format.eprintf "wrote counters to %s@." path
  | _ -> ());
  (match trace_file with
  | Some path ->
      Trace.Chrome.write_file ~path ~spans:(Trace.Spans.drain ()) ();
      Trace.Spans.set_enabled false;
      Format.eprintf "wrote trace to %s@." path
  | None -> ());
  r

let config_of k_lsb =
  {
    Refine.Flow.default_config with
    Refine.Flow.lsb = { Refine.Lsb_rules.default_config with k_lsb };
  }

(* --- equalizer --------------------------------------------------------- *)

let run_equalizer n seed k_lsb trace_file counters_file verbose =
  setup_logs verbose;
  let d = Designs.Lms.build ~n_symbols:n ~seed () in
  let env = d.Designs.Design.env in
  let result =
    with_observability ~trace_file ~counters_file ~label:"equalizer" env
      (fun () ->
        Refine.Flow.refine ~config:(config_of k_lsb) ~sqnr_signal:"v[3]"
          (Designs.Design.flow d))
  in
  print_flow_result env result;
  let { Designs.Lms.sent; output; _ } = d.Designs.Design.parts in
  let decided = Array.of_list (Sim.Channel.recorded output) in
  Format.printf "SER: %.4f@." (Dsp.Pam.best_ser ~skip:100 ~sent ~decided ())

let equalizer_cmd =
  Cmd.v
    (Cmd.info "equalizer" ~doc:"Refine the LMS equalizer (Fig. 1).")
    Term.(
      const run_equalizer $ symbols_t $ seed_t $ k_lsb_t $ trace_file_t
      $ counters_file_t $ verbose_t)

(* --- timing recovery --------------------------------------------------- *)

let run_timing n seed k_lsb trace_file counters_file verbose =
  setup_logs verbose;
  let d = Designs.Timing.build ~n_symbols:n ~seed () in
  let env = d.Designs.Design.env in
  let config = Designs.Timing.config (config_of k_lsb) in
  let result =
    with_observability ~trace_file ~counters_file ~label:"timing" env
      (fun () ->
        Refine.Flow.refine ~config ~sqnr_signal:"out" (Designs.Design.flow d))
  in
  print_flow_result env result;
  let { Designs.Timing.sent; output; _ } = d.Designs.Design.parts in
  let decided = Array.of_list (Sim.Channel.recorded output) in
  Format.printf "SER after lock: %.4f@."
    (Dsp.Pam.best_ser ~skip:500 ~sent ~decided ())

let timing_cmd =
  Cmd.v
    (Cmd.info "timing" ~doc:"Refine the PAM timing-recovery loop (Fig. 5).")
    Term.(
      const run_timing $ symbols_t $ seed_t $ k_lsb_t $ trace_file_t
      $ counters_file_t $ verbose_t)

(* --- timing-ml: the closed ML-TED synchronizer ------------------------- *)

let run_timing_ml n seed k_lsb trace_file counters_file verbose =
  setup_logs verbose;
  let d = Designs.Sync.build ~n_symbols:n ~seed () in
  let env = d.Designs.Design.env in
  let { Designs.Sync.sy; sent; output; decisions } = d.Designs.Design.parts in
  let design = Designs.Design.flow d in
  (* float reference pass: lock quality before any quantization *)
  design.Refine.Flow.reset ();
  design.Refine.Flow.run ();
  let skip = min 300 (n / 2) in
  let mer_now () =
    let received = Array.of_list (Sim.Channel.recorded output) in
    fst (Dsp.Pam.best_mer ~skip ~sent ~received ())
  in
  let float_mer = mer_now () in
  Format.printf
    "float lock: MER %.2f dB, strobe-rate error %.4f@." float_mer
    (Dsp.Synchronizer.strobe_rate_error sy);
  let config = Designs.Sync.overrule_nco_phase d (config_of k_lsb) in
  let result =
    with_observability ~trace_file ~counters_file ~label:"timing-ml" env
      (fun () -> Refine.Flow.refine ~config ~sqnr_signal:"out" design)
  in
  print_flow_result env result;
  design.Refine.Flow.reset ();
  design.Refine.Flow.run ();
  let refined_mer = mer_now () in
  let evm =
    if Float.is_finite refined_mer then 10.0 ** (-.refined_mer /. 20.0) *. 100.0
    else 0.0
  in
  Format.printf
    "refined lock: MER %.2f dB (EVM %.2f%%, delta %.2f dB), strobe-rate \
     error %.4f@."
    refined_mer evm (float_mer -. refined_mer)
    (Dsp.Synchronizer.strobe_rate_error sy);
  let decided = Array.of_list (Sim.Channel.recorded decisions) in
  Format.printf "SER after lock: %.4f@."
    (Dsp.Pam.best_ser ~skip ~m:4 ~sent ~decided ())

let timing_ml_cmd =
  Cmd.v
    (Cmd.info "timing-ml"
       ~doc:
         "Refine the closed ML-TED symbol-timing synchronizer (4-PAM, \
          drifting tau), with the \\$(b,\\\\S6.1) error() overrule on the \
          NCO phase; reports MER/EVM and strobe-rate lock besides SQNR.")
    Term.(
      const run_timing_ml $ symbols_t $ seed_t $ k_lsb_t $ trace_file_t
      $ counters_file_t $ verbose_t)

(* --- cordic ------------------------------------------------------------ *)

let run_cordic n seed k_lsb trace_file counters_file verbose =
  setup_logs verbose;
  let d = Designs.Cordic.rotator ~n ~seed () in
  let env = d.Designs.Design.env in
  let result =
    with_observability ~trace_file ~counters_file ~label:"cordic" env
      (fun () ->
        Refine.Flow.refine ~config:(config_of k_lsb)
          ~sqnr_signal:d.Designs.Design.probe (Designs.Design.flow d))
  in
  print_flow_result env result

let cordic_cmd =
  Cmd.v
    (Cmd.info "cordic" ~doc:"Refine a 12-stage CORDIC rotator.")
    Term.(
      const run_cordic $ symbols_t $ seed_t $ k_lsb_t $ trace_file_t
      $ counters_file_t $ verbose_t)

(* --- quantize ----------------------------------------------------------- *)

let run_quantize value type_str n f sat floor_mode =
  let dt =
    match type_str with
    | Some s -> (
        match Fixpt.Dtype.of_string s with
        | Some dt -> dt
        | None ->
            Format.eprintf "cannot parse type %S (expected name<n,f,...>)@." s;
            exit 1)
    | None ->
        Fixpt.Dtype.make "cli" ~n ~f
          ~overflow:
            (if sat then Fixpt.Overflow_mode.Saturate
             else Fixpt.Overflow_mode.Wrap)
          ~round:
            (if floor_mode then Fixpt.Round_mode.Floor
             else Fixpt.Round_mode.Round)
          ()
  in
  let out = Fixpt.Quantize.quantize dt value in
  Format.printf "%.10g -> %.10g through %s (err %.3g%s)@." value
    out.Fixpt.Quantize.value (Fixpt.Dtype.to_string dt)
    (out.Fixpt.Quantize.value -. value)
    (match out.Fixpt.Quantize.overflow with
    | Some _ -> ", overflowed"
    | None -> "")

let quantize_cmd =
  let value_t =
    Arg.(required & pos 0 (some float) None & info [] ~docv:"VALUE")
  in
  let type_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "type" ] ~doc:"Full dtype, e.g. 'acc<10,8,tc,sat,fl>'.")
  in
  let n_t = Arg.(value & opt int 8 & info [ "n" ] ~doc:"Total bits.") in
  let f_t = Arg.(value & opt int 6 & info [ "f" ] ~doc:"Fractional bits.") in
  let sat_t = Arg.(value & flag & info [ "sat" ] ~doc:"Saturate on overflow.") in
  let floor_t = Arg.(value & flag & info [ "floor" ] ~doc:"Floor rounding.") in
  Cmd.v
    (Cmd.info "quantize" ~doc:"Quantize a value through a fixed-point type.")
    Term.(const run_quantize $ value_t $ type_t $ n_t $ f_t $ sat_t $ floor_t)

(* An option outside its domain is a usage error: one stderr line
   naming the option, exit 1, before the library call that would raise
   [Invalid_argument] (a crash, exit 2) on it. *)
let require cmd ok msg =
  if not ok then begin
    Format.eprintf "fxrefine %s: %s@." cmd msg;
    exit 1
  end

(* The sweep a command's options describe, checked once by
   {!Serve.Protocol.sweep_of_params}, the daemon's own validation; an
   invalid one is a usage error (exit 1). *)
let sweep_or_exit ?strategies cmd params =
  match Serve.Protocol.sweep_of_params ?strategies params with
  | Ok sweep -> sweep
  | Error msg ->
      Format.eprintf "fxrefine %s: %s@." cmd msg;
      exit 1

(* --- sweep: parallel wordlength exploration ----------------------------- *)

let run_sweep workload_name strategy jobs budget f_min f_max n_seeds
    target_db cache_dir checkpoint_dir resume json trace_file counters_file
    verbose =
  setup_logs verbose;
  if resume && checkpoint_dir = None then begin
    Format.eprintf "--resume requires --checkpoint DIR@.";
    exit 1
  end;
  if counters_file <> None && checkpoint_dir <> None then begin
    Format.eprintf
      "--counters cannot be combined with --checkpoint (counters do not \
       round-trip through the wave journal)@.";
    exit 1
  end;
  let params =
    {
      Serve.Protocol.workload = workload_name;
      strategy;
      f_min;
      f_max;
      seeds = n_seeds;
      jobs;
      budget;
      target_db;
      timeout_s = None;
    }
  in
  let workload, generator = sweep_or_exit "sweep" params in
  if trace_file <> None then Trace.Spans.set_enabled true;
  (* a persistent cache makes identical re-sweeps answer from disk; the
     report stays byte-identical either way (the serve gate's contract) *)
  let store = Option.map (fun dir -> Serve.Cache.create ~dir ()) cache_dir in
  let cache = Option.map Serve.Codec.eval_cache store in
  (* the wave journal takes the daemon's key for the same sweep; jobs
     is not part of it, so a resume may change --jobs freely *)
  let checkpoint =
    Option.map
      (fun dir ->
        Sweep.Checkpoint.create ~resume ~dir
          ~key:(Serve.Protocol.checkpoint_key params)
          ())
      checkpoint_dir
  in
  let t0 = Unix.gettimeofday () in
  let report =
    Sweep.Pool.run ~jobs ?budget ?cache ?checkpoint
      ~counters:(counters_file <> None)
      ~workload ~generator ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  if json then print_string (Sweep.Report.to_json report)
  else Format.printf "%a" Sweep.Report.pp report;
  (match counters_file with
  | Some path ->
      write_text path (Sweep.Report.counters_json report);
      Format.eprintf "wrote counters to %s@." path
  | None -> ());
  (match trace_file with
  | Some path ->
      Trace.Chrome.write_file ~path ~spans:(Trace.Spans.drain ()) ();
      Trace.Spans.set_enabled false;
      Format.eprintf "wrote trace to %s@." path
  | None -> ());
  (* timing goes to stderr, never into the (deterministic) report *)
  Format.eprintf "sweep: %d candidates in %.3f s (jobs=%d)@."
    (List.length report.Sweep.Report.entries)
    dt jobs;
  (match checkpoint with
  | Some cp ->
      let waves, cands = Sweep.Checkpoint.replayed cp in
      if resume then
        Format.eprintf
          "checkpoint: replayed %d wave(s) (%d candidates) from %s@." waves
          cands (Sweep.Checkpoint.dir cp)
      else
        Format.eprintf "checkpoint: journaled %d wave(s) to %s@."
          (Sweep.Checkpoint.waves cp)
          (Sweep.Checkpoint.dir cp)
  | None -> ());
  match store with
  | Some c ->
      let s = Serve.Cache.stats c in
      let looked = s.Serve.Cache.hits + s.Serve.Cache.misses in
      Format.eprintf "cache: %d hits, %d misses (%.0f%% hit rate), %d entries@."
        s.Serve.Cache.hits s.Serve.Cache.misses
        (if looked = 0 then 0.0
         else 100.0 *. float_of_int s.Serve.Cache.hits /. float_of_int looked)
        s.Serve.Cache.entries
  | None -> ()

let sweep_cmd =
  let workload_t =
    Arg.(
      value & opt string "fir"
      & info [ "workload" ] ~doc:"Built-in workload to explore.")
  in
  let strategy_t =
    Arg.(
      value & opt string "grid"
      & info [ "strategy" ]
          ~doc:"Search strategy: \\$(b,grid), \\$(b,bisect) or \\$(b,pareto).")
  in
  let jobs_t =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~doc:"Worker domains (1 = sequential).")
  in
  let budget_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~doc:"Cap on the number of evaluated candidates.")
  in
  let f_min_t =
    Arg.(value & opt int 2 & info [ "f-min" ] ~doc:"Smallest fractional width.")
  in
  let f_max_t =
    Arg.(value & opt int 10 & info [ "f-max" ] ~doc:"Largest fractional width.")
  in
  let seeds_t =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~doc:"Stimulus seeds per wordlength (0..N-1).")
  in
  let target_t =
    Arg.(
      value & opt float 40.0
      & info [ "target-db" ] ~doc:"SQNR target for \\$(b,bisect).")
  in
  let json_t =
    Arg.(value & flag & info [ "json" ] ~doc:"Canonical JSON report.")
  in
  let cache_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ]
          ~doc:
            "Content-addressed evaluation cache directory: compiled \
             candidate evaluations are looked up before computing and \
             persisted after, so an identical re-sweep answers from disk. \
             The report is byte-identical with or without the cache; a \
             hit-rate line goes to stderr.")
  in
  let checkpoint_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ]
          ~doc:
            "Crash-safety journal directory: every completed wave is \
             recorded durably (atomic rename + fsync) under a key derived \
             from the sweep parameters, so a killed sweep can be resumed \
             with \\$(b,--resume) to a byte-identical report. Without \
             \\$(b,--resume), stale records under the same key are cleared \
             first.")
  in
  let resume_t =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay waves already journaled under \\$(b,--checkpoint) \
             instead of re-evaluating them; the report is byte-identical \
             to an uninterrupted run, at any \\$(b,--jobs).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Explore wordlength/stimulus candidates in parallel (OCaml \
          multicore); deterministic for any --jobs.")
    Term.(
      const run_sweep $ workload_t $ strategy_t $ jobs_t $ budget_t $ f_min_t
      $ f_max_t $ seeds_t $ target_t $ cache_dir_t $ checkpoint_t $ resume_t
      $ json_t $ trace_file_t $ counters_file_t $ verbose_t)

(* --- faultsim: a sweep under seeded fault injection --------------------- *)

let run_faultsim workload_name strategy jobs f_min f_max n_seeds plan_file
    fault_seed nan_rate inf_rate denormal_rate extreme_rate extreme_mag
    bitflip_rate overflow_rate starve_after targets on_overflow emit_plan
    json counters_file verbose =
  setup_logs verbose;
  let plan =
    match plan_file with
    | Some path -> (
        match Fault.Plan.of_json (Store.Durable.read_file path) with
        | Ok p -> p
        | Error e ->
            Format.eprintf "cannot parse fault plan %s: %s@." path e;
            exit 1)
    | None -> (
        List.iter
          (fun (opt, r) ->
            require "faultsim" (r >= 0.0 && r <= 1.0)
              (Printf.sprintf "--%s must be in [0, 1]" opt))
          [
            ("nan-rate", nan_rate);
            ("inf-rate", inf_rate);
            ("denormal-rate", denormal_rate);
            ("extreme-rate", extreme_rate);
            ("bitflip-rate", bitflip_rate);
            ("overflow-rate", overflow_rate);
          ];
        require "faultsim"
          (Float.is_finite extreme_mag && extreme_mag > 0.0)
          "--extreme-mag must be finite and positive";
        require "faultsim"
          (Option.fold ~none:true ~some:(fun n -> n >= 0) starve_after)
          "--starve-after must be at least 0";
        match Fault.Plan.policy_override_of_string on_overflow with
        | Error e ->
            Format.eprintf "--on-overflow: %s@." e;
            exit 1
        | Ok on_overflow ->
            Fault.Plan.make ~seed:fault_seed ~nan_rate ~inf_rate
              ~denormal_rate ~extreme_rate ~extreme_mag ~bitflip_rate
              ~force_overflow_rate:overflow_rate ?starve_after ~targets
              ~on_overflow ())
  in
  if emit_plan then print_string (Fault.Plan.to_json plan)
  else begin
    let workload, generator =
      sweep_or_exit ~strategies:[ "grid"; "pareto" ] "faultsim"
        {
          Serve.Protocol.workload = workload_name;
          strategy;
          f_min;
          f_max;
          seeds = n_seeds;
          jobs;
          budget = None;
          target_db = 0.0 (* bisect is not offered, so unused *);
          timeout_s = None;
        }
    in
    let workload = Fault.Inject.workload plan workload in
    Format.eprintf "faultsim: plan %a@." Fault.Plan.pp plan;
    let report =
      Sweep.Pool.run ~jobs
        ~counters:(counters_file <> None)
        ~workload ~generator ()
    in
    if json then print_string (Sweep.Report.to_json report)
    else Format.printf "%a" Sweep.Report.pp report;
    (match counters_file with
    | Some path ->
        write_text path (Sweep.Report.counters_json report);
        Format.eprintf "wrote counters to %s@." path
    | None -> ());
    Format.eprintf "faultsim: %d evaluated, %d quarantined (jobs=%d)@."
      (List.length report.Sweep.Report.entries)
      (List.length report.Sweep.Report.failures)
      jobs
  end

let faultsim_cmd =
  let workload_t =
    Arg.(
      value & opt string "fir"
      & info [ "workload" ] ~doc:"Built-in workload to explore under faults.")
  in
  let strategy_t =
    Arg.(
      value & opt string "grid"
      & info [ "strategy" ] ~doc:"Search strategy: \\$(b,grid) or \\$(b,pareto).")
  in
  let jobs_t =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~doc:"Worker domains (1 = sequential).")
  in
  let f_min_t =
    Arg.(value & opt int 4 & info [ "f-min" ] ~doc:"Smallest fractional width.")
  in
  let f_max_t =
    Arg.(value & opt int 7 & info [ "f-max" ] ~doc:"Largest fractional width.")
  in
  let seeds_t =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~doc:"Stimulus seeds per wordlength (0..N-1).")
  in
  let plan_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Load the fault plan from canonical JSON (as written by \
             \\$(b,--emit-plan)); overrides all plan flags.")
  in
  let fault_seed_t =
    Arg.(
      value & opt int 42
      & info [ "fault-seed" ] ~doc:"Fault schedule seed (pure-hash replay).")
  in
  let rate name doc = Arg.(value & opt float 0.0 & info [ name ] ~doc) in
  let nan_t = rate "nan-rate" "Stimulus sample -> NaN probability." in
  let inf_t = rate "inf-rate" "Stimulus sample -> +/-infinity probability." in
  let denormal_t =
    rate "denormal-rate" "Stimulus sample -> IEEE denormal probability."
  in
  let extreme_t =
    rate "extreme-rate" "Stimulus sample -> +/-extreme-mag probability."
  in
  let extreme_mag_t =
    Arg.(
      value & opt float 1e30
      & info [ "extreme-mag" ] ~doc:"Magnitude of an extreme sample.")
  in
  let bitflip_t =
    rate "bitflip-rate" "Post-quantization SEU probability per assignment."
  in
  let overflow_t =
    rate "overflow-rate" "Forced overflow probability per assignment."
  in
  let starve_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "starve-after" ]
          ~doc:"Stimulus channels produce only this many samples.")
  in
  let targets_t =
    Arg.(
      value & opt_all string []
      & info [ "target" ] ~docv:"SIGNAL"
          ~doc:"Inject only into \\$(docv) (repeatable; default: all).")
  in
  let on_overflow_t =
    Arg.(
      value & opt string "keep"
      & info [ "on-overflow" ]
          ~doc:
            "Overflow policy override: \\$(b,keep), \\$(b,raise) (crash + \
             quarantine) or \\$(b,collect) (record and keep going).")
  in
  let emit_plan_t =
    Arg.(
      value & flag
      & info [ "emit-plan" ]
          ~doc:"Print the canonical plan JSON and exit (no simulation).")
  in
  let json_t =
    Arg.(value & flag & info [ "json" ] ~doc:"Canonical JSON report.")
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:
         "Run a wordlength sweep under a seeded, deterministic \
          fault-injection plan: SEU bitflips and forced overflows at the \
          assignment site, with crashing candidates quarantined into a \
          partial report that is byte-identical for any --jobs.")
    Term.(
      const run_faultsim $ workload_t $ strategy_t $ jobs_t $ f_min_t
      $ f_max_t $ seeds_t $ plan_t $ fault_seed_t $ nan_t $ inf_t
      $ denormal_t $ extreme_t $ extreme_mag_t $ bitflip_t $ overflow_t
      $ starve_t $ targets_t $ on_overflow_t $ emit_plan_t $ json_t
      $ counters_file_t $ verbose_t)

(* --- trace: one workload under full tracing ----------------------------- *)

let workload_names =
  List.map
    (fun (w : Oracle.Workloads.t) -> w.Oracle.Workloads.name)
    Oracle.Workloads.all

let run_trace workload_name out_path counters_file ring_cap verbose =
  setup_logs verbose;
  require "trace" (ring_cap >= 1) "--ring must be at least 1";
  match Oracle.Workloads.find workload_name with
  | None ->
      Format.eprintf "unknown workload %S (available: %s)@." workload_name
        (String.concat ", " workload_names);
      exit 1
  | Some w ->
      let b = w.Oracle.Workloads.build () in
      let ctr = Trace.Counters.create () in
      let ring = Trace.Ring.create ~capacity:ring_cap () in
      Sim.Env.set_sink b.Oracle.Workloads.env
        (Trace.Sink.tee (Trace.Counters.sink ctr) (Trace.Ring.sink ring));
      Trace.Spans.set_enabled true;
      let t0 = Trace.Spans.now () in
      b.Oracle.Workloads.run ();
      Trace.Spans.record ~cat:"workload"
        ~name:(Printf.sprintf "run %s" w.Oracle.Workloads.name)
        ~t0 ~t1:(Trace.Spans.now ()) ();
      Sim.Env.clear_sink b.Oracle.Workloads.env;
      Format.printf "%a" Trace.Counters.pp ctr;
      if Trace.Ring.dropped ring > 0 then
        Format.printf
          "ring: kept the last %d of %d events (%d dropped; raise --ring)@."
          (Trace.Ring.length ring)
          (Trace.Ring.length ring + Trace.Ring.dropped ring)
          (Trace.Ring.dropped ring);
      Trace.Chrome.write_file ~path:out_path ~spans:(Trace.Spans.drain ())
        ~ring ();
      Trace.Spans.set_enabled false;
      Format.printf "wrote %s (chrome://tracing or Perfetto)@." out_path;
      (match counters_file with
      | Some path ->
          write_text path
            (Trace.Counters.to_json
               ~meta:
                 [ ("workload", Trace.Json.string_lit w.Oracle.Workloads.name) ]
               ctr);
          Format.printf "wrote %s@." path
      | None -> ())

let trace_cmd =
  let workload_t =
    Arg.(
      value & pos 0 string "fir"
      & info [] ~docv:"WORKLOAD"
          ~doc:
            (Printf.sprintf "Conformance workload to trace (%s)."
               (String.concat "|" workload_names)))
  in
  let out_t =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Chrome trace output path.")
  in
  let ring_t =
    Arg.(
      value & opt int 4096
      & info [ "ring" ] ~doc:"Event ring-buffer capacity (last N events).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one conformance workload with the full observability stack: \
          per-signal counters to stdout, the last N raw events and the \
          wall-clock spans to a Chrome trace_event JSON.")
    Term.(
      const run_trace $ workload_t $ out_t $ counters_file_t $ ring_t
      $ verbose_t)

(* --- check: the conformance oracle ------------------------------------- *)

(* Run one opt-in gate when [on]: print its report and return whether
   it passed.  A gate that is off passes. *)
let gate on run pp passed =
  (not on)
  ||
  let r = run () in
  Format.printf "%a@." pp r;
  passed r

let run_check seed per_combo update_golden golden_dir jobs faults
    compiled with_verify with_serve with_sync with_chaos verbose =
  setup_logs verbose;
  let seed =
    match seed with Some s -> s | None -> Oracle.Differential.default_seed ()
  in
  Format.printf
    "fxrefine check: seed %d (replay with --check-seed %d or \
     FXREFINE_QCHECK_SEED=%d)@."
    seed seed seed;
  let diff = Oracle.Differential.run ~seed ~per_combo () in
  Format.printf "%a@." Oracle.Differential.pp_report diff;
  let meta = Oracle.Metamorphic.run_all () in
  Format.printf "%a@." Oracle.Metamorphic.pp_report meta;
  let golden = Oracle.Golden.check ~update:update_golden ?dir:golden_dir () in
  Format.printf "%a@." Oracle.Golden.pp_result golden;
  (* The chaos gate forks, and OCaml 5 forbids [Unix.fork] once any
     domain was ever created in the process — so it must run before
     the sweep/trace/serve gates (and before its own resume legs)
     spawn worker domains. *)
  let chaos_ok =
    gate with_chaos
      (fun () -> Oracle.Chaos_check.run ?jobs ~seed ())
      Oracle.Chaos_check.pp_report Oracle.Chaos_check.passed
  in
  let sweep = Oracle.Sweep_check.run ?jobs () in
  Format.printf "%a@." Oracle.Sweep_check.pp_report sweep;
  let trace = Oracle.Trace_check.run ?jobs () in
  Format.printf "%a@." Oracle.Trace_check.pp_report trace;
  let faults_ok =
    gate faults
      (fun () -> Oracle.Fault_check.run ?jobs ())
      Oracle.Fault_check.pp_report Oracle.Fault_check.passed
  in
  let compiled_ok =
    gate compiled Oracle.Compile_check.run Oracle.Compile_check.pp_report
      Oracle.Compile_check.passed
  in
  let verify_ok =
    gate with_verify
      (fun () ->
        Oracle.Verify_check.run ~update:update_golden ?dir:golden_dir ())
      Oracle.Verify_check.pp_report Oracle.Verify_check.passed
  in
  let serve_ok =
    gate with_serve
      (fun () -> Oracle.Serve_check.run ?jobs ())
      Oracle.Serve_check.pp_report Oracle.Serve_check.passed
  in
  let sync_ok =
    gate with_sync
      (fun () -> Oracle.Sync_check.run ?jobs ())
      Oracle.Sync_check.pp_report Oracle.Sync_check.passed
  in
  let ok =
    Oracle.Differential.passed diff
    && Oracle.Metamorphic.passed meta
    && Oracle.Golden.passed golden
    && Oracle.Sweep_check.passed sweep
    && Oracle.Trace_check.passed trace && faults_ok && compiled_ok
    && verify_ok && serve_ok && sync_ok && chaos_ok
  in
  Format.printf "fxrefine check: %s@." (if ok then "PASS" else "FAIL");
  if not ok then exit 1

let check_cmd =
  let seed_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "check-seed" ]
          ~doc:
            "Oracle seed (default: \\$(b,FXREFINE_QCHECK_SEED) or the fixed \
             built-in constant).")
  in
  let per_combo_t =
    Arg.(
      value & opt int 1000
      & info [ "per-combo" ]
          ~doc:"Differential cases per sign/overflow/round combination.")
  in
  let update_t =
    Arg.(
      value & flag
      & info [ "update-golden" ]
          ~doc:"Rewrite the golden files instead of comparing against them.")
  in
  let golden_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden-dir" ] ~doc:"Golden file directory override.")
  in
  let jobs_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ]
          ~doc:
            "Worker domains for the sweep-determinism gate (default: \
             recommended domain count, at least 2).")
  in
  let faults_t =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Also run the fault-injection gate: schedule replay, faulted \
             sweep quarantine determinism, collect-policy degradation.")
  in
  let compiled_t =
    Arg.(
      value & flag
      & info [ "compiled" ]
          ~doc:
            "Also run the compiled-executor gate: byte-equality between \
             the flat-schedule executor and the interpreter over every \
             conformance workload graph (batched) and \
             sweep metric parity.")
  in
  let verify_t =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Also run the verification-oracle gate: prove/refute \
             no-overflow and no-limit-cycle on every conformance workload \
             flowgraph plus the pinned biquad exemplars, cross-check \
             refutations against the range analysis (soundness), pin the \
             counterexample stimuli as golden files and replay them \
             through interpreter and compiled executor.")
  in
  let serve_t =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:
            "Also run the serve gate: the content-addressed evaluation \
             cache must be byte-transparent (no-cache vs cold vs warm vs \
             parallel-warm reports identical, warm answering every \
             candidate from disk), and a daemon round trip over a real \
             Unix socket must return the same byte-identical report.")
  in
  let sync_t =
    Arg.(
      value & flag
      & info [ "sync" ]
          ~doc:
            "Also run the synchronizer gate: the closed ML-TED timing loop \
             must lock on drifting-tau 4-PAM in float, stay within 2 dB MER \
             after the \\$(b,\\\\S6.1) refinement (saturating loop-filter \
             integrator, error()-overruled NCO phase visible in the \
             decisions) and render a jobs-independent sweep report.")
  in
  let chaos_t =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Also run the chaos gate: fork checkpointed sweeps and a \
             journaled daemon, \\$(b,SIGKILL) them at seeded points \
             mid-wave, resume, and require the resumed reports \
             byte-identical to never-killed runs, every write-ahead \
             intent recovered on restart, a clean \\$(b,SIGTERM) drain, \
             and every seeded corruption of a cache entry, a wave file \
             or an intent detected: none served, replayed or re-run.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the conformance oracle: differential quantizer testing, \
          metamorphic workload invariants, golden traces, sweep determinism, \
          trace determinism; \\$(b,--faults) adds the \
          fault-injection gate, \\$(b,--compiled) the compiled-executor \
          gate, \\$(b,--verify) the verification-oracle gate, \
          \\$(b,--serve) the cache/daemon gate, \\$(b,--sync) the \
          synchronizer lock/refine gate, \\$(b,--chaos) the kill-based \
          crash-safety gate.")
    Term.(
      const run_check $ seed_t $ per_combo_t $ update_t $ golden_dir_t
      $ jobs_t $ faults_t $ compiled_t $ verify_t $ serve_t $ sync_t
      $ chaos_t $ verbose_t)

(* --- compile: inspect the flat-schedule executor ------------------------ *)

let run_compile workload_name batch steps verbose =
  setup_logs verbose;
  require "compile" (batch >= 1) "--batch must be at least 1";
  require "compile" (steps >= 1) "--steps must be at least 1";
  let workloads =
    match workload_name with
    | "all" -> Oracle.Workloads.all
    | name -> (
        match Oracle.Workloads.find name with
        | Some w -> [ w ]
        | None ->
            Format.eprintf "compile: unknown workload %s@." name;
            exit 1)
  in
  let all_ok = ref true in
  List.iter
    (fun (w : Oracle.Workloads.t) ->
      let b = w.Oracle.Workloads.build () in
      match b.Oracle.Workloads.extract_graph with
      | None ->
          Format.printf "%-8s no extractor@." w.Oracle.Workloads.name
      | Some extract -> (
          match Compile.compile ~batch (extract ()) with
          | exception Compile.Cannot_compile msg ->
              all_ok := false;
              Format.printf "%-8s cannot compile: %s@."
                w.Oracle.Workloads.name msg
          | prog ->
              (* quick equality spot-check, then throughput *)
              let mism =
                Oracle.Compile_check.equality_mismatches ~batch:2 ~steps:32
                  (extract ())
              in
              if mism > 0 then all_ok := false;
              let buf =
                Array.init 8192 (fun i -> Float.sin (Float.of_int i) *. 0.75)
              in
              let inputs _name step dst off =
                for lane = 0 to batch - 1 do
                  dst.(off + lane) <-
                    Array.unsafe_get buf ((lane + (step * 31)) land 8191)
                done
              in
              Compile.run prog ~steps ~inputs;
              let reps = ref 0 in
              let t0 = Sys.time () in
              let elapsed () = Sys.time () -. t0 in
              while elapsed () < 0.3 || !reps = 0 do
                Compile.run prog ~steps ~inputs;
                incr reps
              done;
              let sps =
                Float.of_int (!reps * steps * batch) /. elapsed ()
              in
              Format.printf
                "%-8s %3d nodes -> %3d instrs  B=%-3d %8d steps/run  \
                 %12.0f lane-samples/sec  equality(B=2,32 steps): %s@."
                w.Oracle.Workloads.name (Compile.node_count prog)
                (Compile.instr_count prog) batch steps sps
                (if mism = 0 then "ok" else Printf.sprintf "%d MISMATCHES" mism)))
    workloads;
  if not !all_ok then exit 1

let compile_cmd =
  let workload_t =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"WORKLOAD"
          ~doc:
            (Printf.sprintf "Conformance workload to compile (%s|all)."
               (String.concat "|" workload_names)))
  in
  let batch_t =
    Arg.(
      value & opt int 64
      & info [ "batch"; "B" ] ~doc:"Stimulus vectors advanced per tick.")
  in
  let steps_t =
    Arg.(
      value & opt int 4096 & info [ "steps" ] ~doc:"Ticks per measured run.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Lower conformance-workload flowgraphs to the flat-schedule \
          batched executor: per-workload instruction counts, a \
          compiled-vs-interpreted equality spot check, and batched \
          throughput.")
    Term.(const run_compile $ workload_t $ batch_t $ steps_t $ verbose_t)

(* --- verify: the sound bit-level verification oracle -------------------- *)

let run_verify design prop_str max_bits depth max_states json trace_file
    verbose =
  setup_logs verbose;
  require "verify" (max_bits >= 0 && max_bits <= 20)
    "--max-bits must be in [0, 20]";
  require "verify" (depth >= 1) "--depth must be at least 1";
  require "verify" (max_states >= 1) "--max-states must be at least 1";
  let properties =
    match prop_str with
    | "all" -> [ Verify.Engine.No_overflow; Verify.Engine.No_limit_cycle ]
    | s -> (
        match Verify.Engine.property_of_string s with
        | Some p -> [ p ]
        | None ->
            Format.eprintf
              "verify: unknown property %S (overflow|limit-cycle|all)@." s;
            exit 1)
  in
  let targets =
    match design with
    | "all" -> Oracle.Verify_check.targets ()
    | name -> (
        match List.assoc_opt name (Oracle.Verify_check.targets ()) with
        | Some mk -> [ (name, mk) ]
        | None ->
            Format.eprintf "verify: unknown design %S (available: %s, all)@."
              name
              (String.concat ", "
                 (List.map fst (Oracle.Verify_check.targets ())));
            exit 1)
  in
  if trace_file <> None then Trace.Spans.set_enabled true;
  let t0 = Unix.gettimeofday () in
  (* one span per (design, property); the engine records its explore,
     scan and confirm phases inside it *)
  let verify name prop g =
    let s0 = Trace.Spans.now () in
    let r = Verify.Engine.verify ~max_bits ~depth ~max_states prop g in
    Trace.Spans.record ~cat:"verify" ~name:"verify"
      ~args:
        [
          ("design", Trace.Json.string_lit name);
          ( "property",
            Trace.Json.string_lit (Verify.Engine.property_name prop) );
        ]
      ~t0:s0 ~t1:(Trace.Spans.now ()) ();
    r
  in
  let reports =
    List.map
      (fun (name, mk) ->
        (name, List.map (fun prop -> verify name prop (mk ())) properties))
      targets
  in
  (match trace_file with
  | Some path ->
      Trace.Chrome.write_file ~path ~spans:(Trace.Spans.drain ()) ();
      Trace.Spans.set_enabled false;
      Format.eprintf "wrote trace to %s@." path
  | None -> ());
  (* the report itself is deterministic; timing goes to stderr only *)
  if json then begin
    print_string "[";
    List.iteri
      (fun i (name, rs) ->
        if i > 0 then print_string ",";
        Printf.printf "{\"design\":\"%s\",\"reports\":[" name;
        List.iteri
          (fun j r ->
            if j > 0 then print_string ",";
            print_string (Verify.Engine.report_to_json r))
          rs;
        print_string "]}")
      reports;
    print_string "]\n"
  end
  else
    List.iter
      (fun (name, rs) ->
        List.iter
          (fun (r : Verify.Engine.report) ->
            Format.printf "%-16s %a@." name Verify.Engine.pp_report r;
            match r.Verify.Engine.verdict with
            | Verify.Engine.Refuted ce ->
                print_string
                  (Verify.Stim.to_string ~property:r.Verify.Engine.property ce)
            | _ -> ())
          rs)
      reports;
  Format.eprintf "verify: %d design(s) in %.3f s@." (List.length reports)
    (Unix.gettimeofday () -. t0)

let verify_cmd =
  let design_t =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"DESIGN"
          ~doc:
            "Design flowgraph to verify: a conformance workload \
             (fir|lms|cordic|timing|sync|ddc), a pinned exemplar \
             (biquad-under|biquad-repaired), or \\$(b,all).")
  in
  let property_t =
    Arg.(
      value & opt string "all"
      & info [ "property" ]
          ~doc:
            "Property to check: \\$(b,overflow), \\$(b,limit-cycle) or \
             \\$(b,all).")
  in
  let max_bits_t =
    Arg.(
      value & opt int 10
      & info [ "max-bits" ]
          ~doc:
            "Exhaustive-alphabet budget: enumerate all inputs when the \
             total input entropy fits this many bits, else fall back to \
             corner stimuli (refute-only).")
  in
  let depth_t =
    Arg.(
      value & opt int 64
      & info [ "depth" ]
          ~doc:
            "Bounded-unrolling depth for corner stimuli and the \
             zero-input limit-cycle horizon k.")
  in
  let max_states_t =
    Arg.(
      value & opt int 65536
      & info [ "max-states" ] ~doc:"Reachable-state budget of the search.")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Canonical (deterministic) JSON report.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Prove or refute no-overflow and zero-input limit-cycle freedom \
          on a design's flowgraph by exhaustive or bounded bit-level \
          state-space search over the compiled executor; refutations come \
          with a concrete hex-float counterexample stimulus.")
    Term.(
      const run_verify $ design_t $ property_t $ max_bits_t $ depth_t
      $ max_states_t $ json_t $ trace_file_t $ verbose_t)

(* --- sfg ---------------------------------------------------------------- *)

let run_sfg dot_path =
  let g = Designs.Lms.extracted () in
  let ranges = Sfg.Range_analysis.run g in
  let noise = Sfg.Noise_analysis.run g ~ranges in
  Format.printf "=== analytical ranges (equalizer SFG) ===@.%a@."
    Sfg.Range_analysis.pp ranges;
  Format.printf "=== analytical noise ===@.%a@." Sfg.Noise_analysis.pp noise;
  match dot_path with
  | Some path ->
      Sfg.Dot.write_file g path ~ranges ();
      Format.printf "wrote %s@." path
  | None -> ()

let sfg_cmd =
  let dot_t =
    Arg.(value & opt (some string) None & info [ "dot" ] ~doc:"DOT output path.")
  in
  Cmd.v
    (Cmd.info "sfg"
       ~doc:
         "Static analysis of the equalizer flowgraph, extracted from the \
          design with its feedback annotated b.range(-0.2, 0.2).")
    Term.(const run_sfg $ dot_t)

(* --- serve / submit: refinement-as-a-service ---------------------------- *)

let run_serve socket cache_dir max_entries journal_dir max_conns verbose =
  setup_logs verbose;
  let at_least_1 = Option.fold ~none:true ~some:(fun m -> m >= 1) in
  require "serve" (at_least_1 max_entries) "--max-entries must be at least 1";
  require "serve" (at_least_1 max_conns) "--max-conns must be at least 1";
  Format.eprintf "fxrefine serve: socket %s%s%s@." socket
    (match cache_dir with
    | Some d -> Printf.sprintf ", cache %s" d
    | None -> ", in-memory cache")
    (match journal_dir with
    | Some d -> Printf.sprintf ", journal %s" d
    | None -> "");
  Serve.Daemon.run ?cache_dir ?max_entries ?journal_dir ?max_conns
    ~log:(fun m -> Format.eprintf "fxrefine serve: %s@." m)
    ~socket ()

let serve_cmd =
  let socket_t =
    Arg.(
      value
      & opt string "fxrefine.sock"
      & info [ "socket" ] ~doc:"Unix-domain socket path to listen on.")
  in
  let cache_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ]
          ~doc:
            "Persist the shared evaluation cache here (in-memory only \
             when omitted).")
  in
  let max_entries_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-entries" ]
          ~doc:
            "Cache size bound; entries are evicted by CLOCK, oldest first \
             unless a hit since the last pass earned a second chance.")
  in
  let journal_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ]
          ~doc:
            "Supervision directory: every admitted sweep job is recorded \
             as a write-ahead intent before it runs (and checkpointed \
             wave by wave), so a daemon killed mid-job re-runs or \
             quarantines it on the next start over the same directory. \
             SIGTERM drains gracefully: in-flight waves finish and are \
             checkpointed before exit.")
  in
  let max_conns_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-conns" ]
          ~doc:
            "Concurrent connection limit (default 64); connections over \
             the limit receive one structured \\$(b,busy) reply and are \
             closed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the refinement daemon: accept sweep jobs over a Unix-domain \
          socket (line-delimited JSON), all jobs sharing one \
          content-addressed evaluation cache.  Stops on a \\$(b,shutdown) \
          request (see \\$(b,fxrefine submit --op shutdown)) or a graceful \
          SIGTERM drain.")
    Term.(
      const run_serve $ socket_t $ cache_dir_t $ max_entries_t $ journal_dir_t
      $ max_conns_t $ verbose_t)

let run_submit socket op workload strategy f_min f_max n_seeds jobs budget
    target_db timeout_s verbose =
  setup_logs verbose;
  let request =
    match op with
    | "ping" -> Serve.Protocol.Ping { id = "cli" }
    | "stats" -> Serve.Protocol.Stats { id = "cli" }
    | "shutdown" -> Serve.Protocol.Shutdown { id = "cli" }
    | "sweep" ->
        let params =
          {
            Serve.Protocol.workload;
            strategy;
            f_min;
            f_max;
            seeds = n_seeds;
            jobs;
            budget;
            target_db;
            timeout_s;
          }
        in
        (* the daemon validates too; checking here first names the
           problem even where the wire cannot carry the value (NaN) *)
        ignore (sweep_or_exit "submit" params);
        Serve.Protocol.Sweep { id = "cli"; params }
    | s ->
        Format.eprintf "unknown op %S (sweep|ping|stats|shutdown)@." s;
        exit 1
  in
  let client =
    match Serve.Client.connect_retry ~attempts:30 socket with
    | c -> c
    | exception exn ->
        Format.eprintf "submit: cannot reach daemon at %s: %s@." socket
          (Printexc.to_string exn);
        exit 1
  in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close client)
    (fun () ->
      match Serve.Client.request client request with
      | Serve.Protocol.Pong _ -> Format.printf "pong@."
      | Serve.Protocol.Bye _ -> Format.printf "daemon shutting down@."
      | Serve.Protocol.Stats_reply { stats; _ } ->
          Format.printf "cache: %a@." Serve.Cache.pp_stats stats
      | Serve.Protocol.Report { report; hits; misses; _ } ->
          print_string report;
          Format.eprintf "job: %d cache hits, %d misses@." hits misses
      | Serve.Protocol.Error { message; _ } ->
          Format.eprintf "daemon error: %s@." message;
          exit 1
      | Serve.Protocol.Busy { active; limit; _ } ->
          Format.eprintf
            "daemon busy: %d/%d connections in use; retry later@." active
            limit;
          exit 1
      | exception Serve.Client.Protocol_error m ->
          Format.eprintf "submit: %s@." m;
          exit 1)

let submit_cmd =
  let socket_t =
    Arg.(
      value
      & opt string "fxrefine.sock"
      & info [ "socket" ] ~doc:"Unix-domain socket the daemon listens on.")
  in
  let op_t =
    Arg.(
      value & opt string "sweep"
      & info [ "op" ]
          ~doc:
            "Operation: \\$(b,sweep) (submit a job, print its canonical \
             JSON report), \\$(b,ping), \\$(b,stats) or \\$(b,shutdown).")
  in
  let workload_t =
    Arg.(
      value & opt string "fir"
      & info [ "workload" ] ~doc:"Built-in workload for \\$(b,--op sweep).")
  in
  let strategy_t =
    Arg.(
      value & opt string "grid"
      & info [ "strategy" ]
          ~doc:"Search strategy: \\$(b,grid), \\$(b,bisect) or \\$(b,pareto).")
  in
  let f_min_t =
    Arg.(value & opt int 2 & info [ "f-min" ] ~doc:"Smallest fractional width.")
  in
  let f_max_t =
    Arg.(value & opt int 10 & info [ "f-max" ] ~doc:"Largest fractional width.")
  in
  let seeds_t =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~doc:"Stimulus seeds per wordlength (0..N-1).")
  in
  let jobs_t =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~doc:"Worker domains for the job.")
  in
  let budget_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~doc:"Cap on the number of evaluated candidates.")
  in
  let target_t =
    Arg.(
      value & opt float 40.0
      & info [ "target-db" ] ~doc:"SQNR target for \\$(b,bisect).")
  in
  let timeout_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ]
          ~doc:"Wall-clock job limit in seconds (checked between waves).")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one request to a running \\$(b,fxrefine serve) daemon and \
          print the response: a sweep job's canonical JSON report (cache \
          hit/miss counts on stderr), a cache stats snapshot, a liveness \
          ping, or a shutdown.")
    Term.(
      const run_submit $ socket_t $ op_t $ workload_t $ strategy_t $ f_min_t
      $ f_max_t $ seeds_t $ jobs_t $ budget_t $ target_t $ timeout_t
      $ verbose_t)

let () =
  let info =
    Cmd.info "fxrefine" ~version:"1.0.0"
      ~doc:"DSP ASIC fixed-point refinement (DATE 1999 reproduction)."
  in
  (* Exit codes: 0 success, 1 gate/usage failure, 2 crash.  A crash
     prints one line (registered exception printers make it precise);
     the backtrace hides behind FXREFINE_DEBUG=1 so scripted callers
     get stable stderr. *)
  let debug = Sys.getenv_opt "FXREFINE_DEBUG" = Some "1" in
  if debug then Printexc.record_backtrace true;
  try
    match
      Cmd.eval_value ~catch:false
        (Cmd.group info
           [
             equalizer_cmd; timing_cmd; timing_ml_cmd; cordic_cmd;
             quantize_cmd; sfg_cmd;
             sweep_cmd; faultsim_cmd; trace_cmd; check_cmd; compile_cmd;
             verify_cmd; serve_cmd; submit_cmd;
           ])
    with
    | Ok (`Ok () | `Version | `Help) -> exit 0
    (* a command line Cmdliner cannot parse is a usage error too *)
    | Error (`Parse | `Term) -> exit 1
    | Error `Exn -> exit 2
  with e ->
    let bt = Printexc.get_backtrace () in
    Format.eprintf "fxrefine: %s@." (Printexc.to_string e);
    if debug then Format.eprintf "%s@." bt
    else Format.eprintf "(set FXREFINE_DEBUG=1 for a backtrace)@.";
    exit 2
