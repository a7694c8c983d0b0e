(** Sweep workloads — self-contained designs a sweep explores.

    A workload bundles everything the pool needs to evaluate candidates
    against a design: a factory for fresh simulation instances (each
    worker domain owns a private one), the probe signal to score, and
    the signal specs the generators assign wordlengths to.

    An {!instance} carries a baseline {!Sim.Env.snapshot} taken at
    construction; the pool restores it before every candidate so each
    evaluation starts from the identical untyped state — the foundation
    of the sweep's determinism guarantee. *)

type instance = {
  env : Sim.Env.t;
  design : Refine.Flow.design;
  baseline : Sim.Env.snapshot;  (** configuration right after build *)
  set_seed : int -> unit;
      (** stimulus seed for the next [design.reset]/[design.run] *)
  compiled : Refine.Eval.compiled_eval option;
      (** compiled-executor support ({!Refine.Eval.evaluate_compiled});
          [None] keeps every evaluation on the clock-true interpreter —
          the fault wrapper strips it, since its injector arms around
          [design.run] only *)
}

type t = {
  name : string;
  probe : string;  (** the signal SQNR/error metrics are read from *)
  specs : Candidate.spec list;  (** the signals the sweep retypes *)
  make_instance : unit -> instance;
      (** fresh private instance; must not share mutable state with any
          other instance (each worker domain owns exactly one) *)
}

(* --- the FIR workload ----------------------------------------------------- *)

let fir_coefs = [| 0.1; 0.25; 0.3; 0.25; 0.1 |]

(* int_bits budgets: x ∈ ±1.2 needs 2 bits (sign + one integer bit);
   the accumulator chain peaks at Σ|c|·max|x| = 1.0·1.2 so 3 bits keep
   saturation marginal rather than catastrophic. *)
let fir_specs =
  ({ Candidate.signal = "x"; int_bits = 2 }
   :: List.init 5 (fun i ->
          { Candidate.signal = Printf.sprintf "d[%d]" i; int_bits = 2 }))
  @ List.init 5 (fun i ->
        { Candidate.signal = Printf.sprintf "v[%d]" (i + 1); int_bits = 3 })
  @ [ { Candidate.signal = "out"; int_bits = 3 } ]

let fir ?(n = 512) () =
  let make_instance () =
    let env = Sim.Env.create ~seed:3 () in
    let rng = Stats.Rng.create ~seed:12 in
    (* consumed by [design.reset]: each candidate's stimulus stream is a
       pure function of its stim_seed *)
    let cur_seed = ref 0 in
    let x = Sim.Signal.create env "x" in
    Sim.Signal.range x (-1.2) 1.2;
    let f = Dsp.Fir.create env ~coefs:fir_coefs () in
    let out = Sim.Signal.create env "out" in
    let design =
      {
        Refine.Flow.env;
        reset =
          (fun () ->
            Sim.Env.reset env;
            Stats.Rng.reseed rng ~seed:(12 + (7919 * !cur_seed)));
        run =
          (fun () ->
            Sim.Engine.run env ~cycles:n (fun _ ->
                let open Sim.Ops in
                x <-- Sim.Value.of_float (Stats.Rng.uniform_sym rng 1.0);
                out <-- Dsp.Fir.step f !!x));
      }
    in
    let baseline = Sim.Env.snapshot env in
    let compiled =
      Some
        {
          Refine.Eval.extract =
            (fun () ->
              Sim.Extract.graph env ~outputs:[ "out" ]
                ~step:(fun () ->
                  let open Sim.Ops in
                  x <-- Sim.Value.of_float (Stats.Rng.uniform_sym rng 1.0);
                  out <-- Dsp.Fir.step f !!x)
                ());
          cycles = n;
          stimulus =
            (fun ~seeds ->
              (* draw [step] of each lane's stream [design.reset]
                 reseeds, read directly: bit-identical to what the
                 clock-true run feeds [x], in any access order and with
                 no buffer *)
              let seeds = Array.map (fun s -> 12 + (7919 * s)) seeds in
              fun name ->
                if String.equal name "x_in" then
                  Stats.Rng.fill_uniform_sym_at ~seeds 1.0
                else fun _step dst off ->
                  Array.fill dst off (Array.length seeds) 0.0);
        }
    in
    { env; design; baseline; set_seed = (fun s -> cur_seed := s); compiled }
  in
  { name = "fir"; probe = "out"; specs = fir_specs; make_instance }

(* --- the closed ML-TED synchronizer workload ------------------------------ *)

(* int_bits budgets: the drifting-tau M-PAM stimulus peaks under 2.0;
   the derivative matched filter swings up to ~4x the interpolant; the
   loop-filter signals are small by design and the NCO phase lives in
   [-W, 1). *)
let sync_specs =
  [
    { Candidate.signal = "in"; int_bits = 2 };
    { Candidate.signal = "ip_out"; int_bits = 2 };
    { Candidate.signal = "ip_dout"; int_bits = 3 };
    { Candidate.signal = "mlted_err"; int_bits = 3 };
    { Candidate.signal = "lf_integ"; int_bits = 1 };
    { Candidate.signal = "lf_lferr"; int_bits = 1 };
    { Candidate.signal = "nco_eta"; int_bits = 1 };
    { Candidate.signal = "nco_mu"; int_bits = 1 };
    { Candidate.signal = "out"; int_bits = 2 };
  ]

(* A small drifting-tau PAM-4 acquisition run per candidate.  The
   feedback loop's OCaml-level control flow (strobe/hold, the sliced
   decision) is data-dependent, so a frozen one-cycle extraction is not
   clock-true for it: [compiled] stays [None] and every candidate is
   evaluated on the clock-true interpreter (same reasoning as the
   fault wrapper stripping compiled support). *)
(* seeds whose stimulus one sync instance keeps: more than one grid of
   perfbench's sweep-sync workload runs (32), about 170 KB of tables *)
let sync_memo_slots = 64

let sync ?(n_symbols = 160) () =
  let sps = 2 and m = 4 in
  let make_instance () =
    let env = Sim.Env.create ~seed:11 () in
    let cur_seed = ref 0 in
    let n_samples = n_symbols * sps in
    let stim = ref (fun (_ : int) -> 0.0) in
    let generate seed =
      let rng = Stats.Rng.create ~seed:(31 + (7919 * seed)) in
      let s, _sent, _n =
        Dsp.Channel_model.drifting_tau_pam ~sps ~m ~tau0:0.3
          ~tau_drift:1e-4 ~phase:0.05 ~noise_sigma:0.01 ~rng ~n_symbols ()
      in
      s
    in
    (* The stimulus is a pure function of its seed, and a grid runs
       every seed once per [f]: the instance keeps the tables of the
       last [sync_memo_slots] seeds, replacing the oldest. *)
    let memo = Array.make sync_memo_slots None and next = ref 0 in
    let regen () =
      let seed = !cur_seed in
      let rec find i =
        if i = sync_memo_slots then None
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
          next := (!next + 1) mod sync_memo_slots;
          stim := s
    in
    regen ();
    let input = Sim.Channel.of_fun "rx" (fun n -> !stim n) in
    let output = Sim.Channel.create "symbols" in
    let sy =
      Dsp.Synchronizer.create env ~ted:Dsp.Synchronizer.Ml ~m ~sps ~input
        ~output ()
    in
    Sim.Signal.range (Dsp.Synchronizer.input_signal sy) (-2.0) 2.0;
    Sim.Signal.range (Dsp.Nco.mu (Dsp.Synchronizer.nco sy)) 0.0 1.0;
    Sim.Signal.range (Sim.Env.find_exn env "lf_lferr") (-0.25) 0.25;
    Sim.Signal.range (Sim.Env.find_exn env "mlted_err") (-4.0) 4.0;
    Sim.Signal.range (Sim.Env.find_exn env "ip_out") (-2.0) 2.0;
    Sim.Signal.range (Sim.Env.find_exn env "ip_dout") (-4.0) 4.0;
    Sim.Signal.range (Sim.Env.find_exn env "out") (-2.0) 2.0;
    let design =
      {
        Refine.Flow.env;
        reset =
          (fun () ->
            Sim.Env.reset env;
            Sim.Channel.clear input;
            Sim.Channel.clear output;
            regen ());
        run = (fun () -> Dsp.Synchronizer.run sy ~samples:n_samples);
      }
    in
    let baseline = Sim.Env.snapshot env in
    { env; design; baseline; set_seed = (fun s -> cur_seed := s); compiled = None }
  in
  { name = "sync"; probe = "out"; specs = sync_specs; make_instance }

let all () = [ fir (); sync () ]

let find name = List.find_opt (fun w -> w.name = name) (all ())
