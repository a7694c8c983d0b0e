type parts = {
  sy : Dsp.Synchronizer.t;
  sent : float array;
  output : Sim.Channel.t;
  decisions : Sim.Channel.t;
}

let m = 4
let sps = 2

let stimulus ~rng ~n_symbols =
  Dsp.Channel_model.drifting_tau_pam ~sps ~m ~tau0:0.3 ~tau_drift:1e-4
    ~phase:0.05 ~noise_sigma:0.01 ~rng ~n_symbols ()

(* The loop on [input]: the synchronizer, its input annotation and the
   §6.1 ranges, as a design running [n_samples] samples per run. *)
let make env ?x_dtype ~range ~input ~output ?decisions ~n_samples ~rewind
    parts =
  let sy =
    Dsp.Synchronizer.create env ~ted:Dsp.Synchronizer.Ml ~m ~sps ?x_dtype
      ~input ~output ?decisions ()
  in
  Sim.Signal.range (Dsp.Synchronizer.input_signal sy) (-.range) range;
  Timing.set_knowledge_ranges sy;
  Design.make env ~probe:"out" ~cycles:n_samples
    ~step:(fun _ ->
      Dsp.Synchronizer.step sy;
      true)
    ~rewind:(fun () ->
      Sim.Channel.clear input;
      Sim.Channel.clear output;
      rewind ())
    ~watch:
      [ Dsp.Synchronizer.input_signal sy; Dsp.Synchronizer.output_signal sy ]
    (parts sy)

let build ?(n_symbols = 700) ?(seed = 463) () =
  let env = Sim.Env.create ~seed:17 () in
  let rng = Stats.Rng.create ~seed in
  let stimulus, sent, n_samples = stimulus ~rng ~n_symbols in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create ~record:true "symbols" in
  let decisions = Sim.Channel.create ~record:true "decisions" in
  make env
    ~x_dtype:(Timing.input_dtype ~n:10 ~f:8)
    ~range:1.6 ~input ~output ~decisions ~n_samples
    ~rewind:(fun () -> Sim.Channel.clear decisions)
    (fun sy -> { sy; sent; output; decisions })

let overrule_nco_phase d base =
  let config = Timing.config base in
  let h =
    Refine.Lsb_rules.error_halfwidth_of_lsb config.Refine.Flow.auto_error_lsb
  in
  let eta = Dsp.Nco.phase (Dsp.Synchronizer.nco d.Design.parts.sy) in
  Sim.Signal.error eta h;
  { config with error_overrides = [ (Sim.Signal.name eta, h) ] }

(* int_bits budgets: the drifting-tau M-PAM stimulus peaks under 2.0;
   the derivative matched filter swings up to ~4x the interpolant; the
   loop-filter signals are small by design and the NCO phase lives in
   [-W, 1). *)
let sweep_specs =
  [
    ("in", 2);
    ("ip_out", 2);
    ("ip_dout", 3);
    ("mlted_err", 3);
    ("lf_integ", 1);
    ("lf_lferr", 1);
    ("nco_eta", 1);
    ("nco_mu", 1);
    ("out", 2);
  ]

(* seeds whose stimulus one sweep instance keeps: more than one grid of
   perfbench's sweep-sync workload runs (32), about 170 KB of tables *)
let memo_slots = 64

let sweep ?(n_symbols = 160) () =
  let env = Sim.Env.create ~seed:11 () in
  let cur_seed = ref 0 in
  let stim = ref (fun (_ : int) -> 0.0) in
  let generate seed =
    let rng = Stats.Rng.create ~seed:(31 + (7919 * seed)) in
    let s, _sent, _n = stimulus ~rng ~n_symbols in
    s
  in
  (* The stimulus is a pure function of its seed, and a grid runs every
     seed once per [f]: the instance keeps the tables of the last
     [memo_slots] seeds, replacing the oldest. *)
  let memo = Array.make memo_slots None and next = ref 0 in
  let regen () =
    let seed = !cur_seed in
    let rec find i =
      if i = memo_slots then None
      else
        match memo.(i) with
        | Some (k, s) when k = seed -> Some s
        | _ -> find (i + 1)
    in
    match find 0 with
    | Some s -> stim := s
    | None ->
        let s = generate seed in
        memo.(!next) <- Some (seed, s);
        next := (!next + 1) mod memo_slots;
        stim := s
  in
  regen ();
  let input = Sim.Channel.of_fun "rx" (fun n -> !stim n) in
  let output = Sim.Channel.create "symbols" in
  make env ~range:2.0 ~input ~output ~n_samples:(n_symbols * sps)
    ~rewind:regen
    (fun _ ->
      { Design.set_seed = (fun s -> cur_seed := s); compiled = None })
