(** Executing a {!Plan}: arming environments, channels and sweep
    workloads with deterministic fault injection.

    Three attachment points, mirroring where real silicon gets hurt:

    - {e assignment site} ({!arm_env} / {!injector}): the
      {!Sim.Env.set_injector} hook transforms post-quantization values —
      SEU bitflips on the stored code, forced overflow events;
    - {e stimulus} ({!wrap_channel}): the channel's producer is wrapped
      to corrupt samples (NaN / ±∞ / denormal / extreme) or starve the
      stream;
    - {e sweep} ({!workload}): a {!Sweep.Workload.t} is wrapped so each
      candidate evaluation runs under the plan, keyed by the candidate's
      stimulus seed — the fault set per candidate is a pure function of
      [(plan, candidate)], independent of [--jobs].

    Every injected fault emits an [on_fault] sink event with a stable
    kind tag, so {!Trace.Counters} tallies faults per signal. *)

(* --- SEU bitflip -------------------------------------------------------- *)

(** [flip_bit dt ~bit v] — flip bit [bit] (0 = LSB) of [v]'s [n]-bit
    integer code under [dt] and re-wrap into the code window: the
    single-event-upset model for a fixed-point register of the ASIC
    target.  Identity for wordlengths beyond the exact int64 grid.
    Raises [Invalid_argument] when [bit] is outside [0, n). *)
let flip_bit dt ~bit v =
  let q = Fixpt.Quantize.of_dtype dt in
  if bit < 0 || bit >= Fixpt.Dtype.n dt then
    invalid_arg "Fault.Inject.flip_bit: bit out of range";
  if not q.Fixpt.Quantize.int64_path then v
  else
    let m = Fixpt.Quantize.nearest_code ~step:q.Fixpt.Quantize.step v in
    let m = Int64.logxor m (Int64.shift_left 1L bit) in
    let m = Fixpt.Quantize.wrap_code (Fixpt.Dtype.fmt dt) m in
    Int64.to_float m *. q.Fixpt.Quantize.step

let apply_bitflip plan ~tag (e : Sim.Env.entry) fx =
  match e.Sim.Env.quant with
  | None -> fx  (* SEUs model fixed-point registers; floats are exempt *)
  | Some q ->
      if not q.Fixpt.Quantize.int64_path then fx
      else begin
        let dt = q.Fixpt.Quantize.cdt in
        let n = Fixpt.Dtype.n dt in
        let env = e.Sim.Env.env in
        let time = Sim.Env.time env in
        let key = e.Sim.Env.name ^ "/" ^ tag in
        let u = Plan.draw plan ~stream:"bitflip-bit" ~key ~index:time in
        let bit = min (n - 1) (int_of_float (u *. float_of_int n)) in
        (let snk = Sim.Env.sink env in
         if snk != Trace.Sink.null then
           snk.Trace.Sink.on_fault ~id:e.Sim.Env.id ~time ~kind:"bitflip");
        flip_bit dt ~bit fx
      end

(* --- forced overflow ---------------------------------------------------- *)

(* Pretend the quantizer overflowed: emit the fault event, push the
   out-of-range raw value through the policy (count / warn / raise /
   collect), and hand back the saturation bound — what the hardware
   would hold after the event. *)
let apply_force_overflow plan ~tag (e : Sim.Env.entry) fx =
  let env = e.Sim.Env.env in
  let time = Sim.Env.time env in
  let key = e.Sim.Env.name ^ "/" ^ tag in
  let above =
    Plan.draw plan ~stream:"force-overflow-dir" ~key ~index:time < 0.5
  in
  let raw, held =
    match e.Sim.Env.quant with
    | Some q ->
        if above then
          ((2.0 *. Float.abs q.Fixpt.Quantize.max_v) +. 1.0,
           q.Fixpt.Quantize.max_v)
        else
          (-.((2.0 *. Float.abs q.Fixpt.Quantize.min_v) +. 1.0),
           q.Fixpt.Quantize.min_v)
    | None ->
        let m = plan.Plan.extreme_mag in
        if above then (m, m) else (-.m, -.m)
  in
  ignore fx;
  (let snk = Sim.Env.sink env in
   if snk != Trace.Sink.null then
     snk.Trace.Sink.on_fault ~id:e.Sim.Env.id ~time ~kind:"force-overflow");
  (* the policy decides what a forced overflow does: Count/Warn keep
     going, Raise aborts, Collect records a fault_record *)
  Sim.Env.record_overflow env e raw;
  held

(* --- the injector hook -------------------------------------------------- *)

(** The {!Sim.Env.set_injector} closure for a plan under discriminator
    [tag] ("" standalone; the candidate stimulus seed in a sweep).
    Pure in [(entry, time)] — replayable anywhere. *)
let injector plan ~tag =
  fun (e : Sim.Env.entry) fx ->
    let time = Sim.Env.time e.Sim.Env.env in
    match Plan.assign_faults plan ~tag ~signal:e.Sim.Env.name ~time with
    | [] -> fx
    | kinds ->
        List.fold_left
          (fun fx kind ->
            match kind with
            | "bitflip" -> apply_bitflip plan ~tag e fx
            | "force-overflow" -> apply_force_overflow plan ~tag e fx
            | _ -> fx)
          fx kinds

let apply_policy plan env =
  match plan.Plan.on_overflow with
  | Plan.Keep -> ()
  | Plan.Force_raise -> Sim.Env.set_policy env Sim.Env.Raise
  | Plan.Force_collect -> Sim.Env.set_policy env Sim.Env.Collect

(** Arm an environment: apply the plan's overflow-policy override and
    install the assignment-site injector. *)
let arm_env plan ?(tag = "") env =
  apply_policy plan env;
  Sim.Env.set_injector env (injector plan ~tag)

(* --- stimulus corruption ------------------------------------------------ *)

(** Wrap a source channel's producer under the plan: samples are
    corrupted per the stimulus rates, and — when [starve_after] is set —
    the stream dries up after that many samples.  [strict] starvation
    raises {!Sim.Channel.Empty} (the crash path); the default degrades
    to silence (0.0).  Raises [Invalid_argument] on a channel with no
    producer. *)
let wrap_channel plan ?(tag = "") ?(strict = false) ch =
  match Sim.Channel.producer ch with
  | None -> invalid_arg "Fault.Inject.wrap_channel: channel has no producer"
  | Some f ->
      let name = Sim.Channel.name ch in
      let key = name ^ "/" ^ tag in
      Sim.Channel.set_producer ch
        (Some
           (fun i ->
             let starved =
               match plan.Plan.starve_after with
               | Some n -> i >= n && Plan.is_target plan name
               | None -> false
             in
             if starved then
               if strict then raise (Sim.Channel.Empty name) else 0.0
             else
               let v = f i in
               match Plan.stimulus_fault plan ~tag ~channel:name ~index:i with
               | None -> v
               | Some `Nan -> Float.nan
               | Some `Inf ->
                   if Plan.draw plan ~stream:"stim-inf-sign" ~key ~index:i
                      < 0.5
                   then Float.infinity
                   else Float.neg_infinity
               | Some `Denormal ->
                   (* a genuine IEEE denormal: half the smallest normal *)
                   Float.min_float *. 0.5
               | Some `Extreme ->
                   if Plan.draw plan ~stream:"stim-extreme-sign" ~key ~index:i
                      < 0.5
                   then plan.Plan.extreme_mag
                   else -.plan.Plan.extreme_mag))

(* --- sweep workloads ---------------------------------------------------- *)

(** Wrap a sweep workload so every candidate evaluation runs under the
    plan.  Instances get the plan's policy override baked into their
    baseline snapshot (so each restore reapplies it), and the injector
    is armed only around [design.run], keyed by the candidate's
    stimulus seed — initialization replays (baseline restores, reset
    hooks) are injection-free, so the fault set of a candidate is a
    pure function of [(plan, candidate)] and never of which worker ran
    what before it. *)
let workload plan (w : Sweep.Workload.t) =
  {
    w with
    Sweep.Workload.make_instance =
      (fun () ->
        let inst = w.Sweep.Workload.make_instance () in
        let env = inst.Sweep.Workload.env in
        apply_policy plan env;
        let baseline = Sim.Env.snapshot env in
        let cur_tag = ref "" in
        let orig_run = inst.Sweep.Workload.design.Refine.Flow.run in
        let design =
          {
            inst.Sweep.Workload.design with
            Refine.Flow.run =
              (fun () ->
                Sim.Env.set_injector env (injector plan ~tag:!cur_tag);
                Fun.protect
                  ~finally:(fun () -> Sim.Env.clear_injector env)
                  orig_run);
          }
        in
        {
          inst with
          Sweep.Workload.design;
          baseline;
          set_seed =
            (fun s ->
              cur_tag := string_of_int s;
              inst.Sweep.Workload.set_seed s);
          (* the injector arms around [design.run] only: the compiled
             path skips that closure entirely, so a faulted workload
             must stay on the clock-true interpreter *)
          compiled = None;
        });
  }
