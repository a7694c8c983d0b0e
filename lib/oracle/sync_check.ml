(** Synchronizer gate — the closed ML-TED timing loop as an oracle.

    The other gates check mechanisms (golden bytes, sweep determinism,
    fault quarantine); this one checks the {e outcome} the paper's §6.1
    flow promises on the flagship feedback workload:

    - the float loop {e locks} on drifting-τ 4-PAM (recovered symbol
      rate within 1% of 1/sps, MER well above the decision threshold);
    - the refined fixed-point loop still locks, with MER within 2 dB of
      float — wordlengths were chosen per signal, not globally;
    - the two knowledge-based annotations of §6.1 are visible in the
      decisions: the loop-filter integrator is a §5.1 case (b) signal
      refined with saturation, and the NCO phase — the "D signal inside
      of NCO" whose error monitoring is meaningless under
      decision-steered feedback — carries the [error()] overrule
      ({!Refine.Decision.Overruled});
    - the synchronizer sweep workload renders a byte-identical
      {!Sweep.Report} at [jobs=1] and [jobs=N] (the data-dependent
      strobe/hold control flow must not leak scheduling). *)

type outcome = {
  float_mer_db : float;  (** float loop, best-lag MER after transient *)
  refined_mer_db : float;  (** same stimulus, refined fixed-point types *)
  mer_delta_db : float;  (** float − refined *)
  float_rate_err : float;  (** |strobe rate / (1/sps) − 1|, float run *)
  refined_rate_err : float;
  sqnr_after_db : float option;
  integrator_dtype : string;  (** decided type of [lf_integ] *)
  integrator_saturating : bool;  (** §5.1 case (b) remedy applied *)
  integrator_case_b : bool;  (** MSB decision was [Prop_pessimistic] *)
  nco_phase_overruled : bool;  (** §6.1 [error()] visible on [nco_eta] *)
}

type sweep_result = {
  jobs : int;
  candidates : int;
  identical : bool;  (** jobs=1 and jobs=N reports byte-equal *)
}

type report = { outcome : outcome; sweep : sweep_result }

let mer_of ~sent ~output =
  let received = Array.of_list (Sim.Channel.recorded output) in
  fst (Dsp.Pam.best_mer ~skip:300 ~sent ~received ())

let refine_outcome () =
  let d = Designs.Sync.build () in
  let { Designs.Sync.sy; sent; output; _ } = d.parts in
  let design = Designs.Design.flow d in
  design.Refine.Flow.reset ();
  design.Refine.Flow.run ();
  let float_mer_db = mer_of ~sent ~output in
  let float_rate_err = Dsp.Synchronizer.strobe_rate_error sy in
  (* §6.1's error() overrule of the NCO phase, set before refinement
     instead of waiting for the divergence detector: the loop is
     self-correcting, so the spurious monitor reading may stay formally
     bounded while still being noise. *)
  let config = Designs.Sync.overrule_nco_phase d Refine.Flow.default_config in
  let result = Refine.Flow.refine ~config ~sqnr_signal:"out" design in
  design.Refine.Flow.reset ();
  design.Refine.Flow.run ();
  let refined_mer_db = mer_of ~sent ~output in
  let refined_rate_err = Dsp.Synchronizer.strobe_rate_error sy in
  let integ_dt = List.assoc_opt "lf_integ" result.Refine.Flow.types in
  let integrator_case_b =
    List.exists
      (fun (d : Refine.Decision.msb) ->
        String.equal d.Refine.Decision.signal "lf_integ"
        && d.Refine.Decision.case = Refine.Decision.Prop_pessimistic)
      result.Refine.Flow.msb_decisions
  in
  let nco_phase_overruled =
    List.exists
      (fun (d : Refine.Decision.lsb) ->
        String.equal d.Refine.Decision.signal "nco_eta"
        && d.Refine.Decision.origin = Refine.Decision.Overruled)
      result.Refine.Flow.lsb_decisions
  in
  {
    float_mer_db;
    refined_mer_db;
    mer_delta_db = float_mer_db -. refined_mer_db;
    float_rate_err;
    refined_rate_err;
    sqnr_after_db = result.Refine.Flow.sqnr_after_db;
    integrator_dtype =
      (match integ_dt with
      | Some dt -> Fixpt.Dtype.to_string dt
      | None -> "<undecided>");
    integrator_saturating =
      (match integ_dt with
      | Some dt -> Fixpt.Overflow_mode.is_saturating (Fixpt.Dtype.overflow dt)
      | None -> false);
    integrator_case_b;
    nco_phase_overruled;
  }

(* Same shape as {!Sweep_check.sweep}: small grid, two stimulus seeds,
   sequential vs parallel report byte-equality.  The synchronizer
   workload has no compiled fast path (data-dependent control flow), so
   this also pins the interpreter-only pool path. *)
let sweep_determinism ~jobs =
  (* generators are stateful wave protocols — build a fresh
     workload/generator pair per side *)
  let sweep ~jobs =
    let workload = Sweep.Workload.sync ~n_symbols:48 () in
    let specs = workload.Sweep.Workload.specs in
    let generator =
      Sweep.Generator.grid ~specs ~f_min:6 ~f_max:8 ~seeds:[ 0; 1 ]
    in
    Sweep.Pool.run ~jobs ~workload ~generator ()
  in
  let sequential = sweep ~jobs:1 in
  let parallel = sweep ~jobs in
  {
    jobs;
    candidates = List.length sequential.Sweep.Report.entries;
    identical = Sweep.Report.to_json sequential = Sweep.Report.to_json parallel;
  }

let run ?jobs () =
  let jobs = Sweep_check.gate_jobs jobs in
  { outcome = refine_outcome (); sweep = sweep_determinism ~jobs }

(* Lock thresholds: rate within 1% of 1/sps and refined MER within 2 dB
   of float (ISSUE acceptance); the 15 dB floor is far above a 4-PAM
   slicing threshold yet far below the ~24 dB a locked loop reaches —
   it only rejects a loop that never locked. *)
let passed t =
  t.outcome.float_mer_db >= 15.0
  && t.outcome.float_rate_err <= 0.01
  && t.outcome.refined_rate_err <= 0.01
  && t.outcome.mer_delta_db <= 2.0
  && t.outcome.integrator_saturating && t.outcome.integrator_case_b
  && t.outcome.nco_phase_overruled && t.sweep.identical

let pp_report ppf t =
  let o = t.outcome in
  Format.fprintf ppf "synchronizer (ML-TED, 4-PAM, drifting tau):@.";
  Format.fprintf ppf "  float    mer=%.2f dB rate_err=%.4f@." o.float_mer_db
    o.float_rate_err;
  Format.fprintf ppf "  refined  mer=%.2f dB rate_err=%.4f (delta %.2f dB%s)@."
    o.refined_mer_db o.refined_rate_err o.mer_delta_db
    (match o.sqnr_after_db with
    | Some v -> Printf.sprintf ", sqnr %.1f dB" v
    | None -> "");
  Format.fprintf ppf "  lf_integ %s case_b=%b saturating=%b@."
    o.integrator_dtype o.integrator_case_b o.integrator_saturating;
  Format.fprintf ppf "  nco_eta  error() overrule observed=%b@."
    o.nco_phase_overruled;
  Format.fprintf ppf "  sweep    %d candidates, jobs 1 vs %d: %s@."
    t.sweep.candidates t.sweep.jobs
    (if t.sweep.identical then "identical" else "DIVERGED")
