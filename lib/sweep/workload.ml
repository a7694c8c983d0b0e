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

(* A sweep workload over a catalogue design: each instance is a fresh
   build, snapshotted right after construction. *)
let of_design ~name ~probe ~specs build =
  let make_instance () =
    let d : Designs.Design.seeded Designs.Design.t = build () in
    {
      env = d.env;
      design = Designs.Design.flow d;
      baseline = Sim.Env.snapshot d.env;
      set_seed = d.parts.set_seed;
      compiled = d.parts.compiled;
    }
  in
  let specs =
    List.map (fun (signal, int_bits) -> { Candidate.signal; int_bits }) specs
  in
  { name; probe; specs; make_instance }

let fir ?n () =
  of_design ~name:"fir" ~probe:"out" ~specs:Designs.Fir.sweep_specs
    (Designs.Fir.sweep ?n)

let sync ?n_symbols () =
  of_design ~name:"sync" ~probe:"out" ~specs:Designs.Sync.sweep_specs
    (Designs.Sync.sweep ?n_symbols)

let all () = [ fir (); sync () ]

let find name = List.find_opt (fun w -> w.name = name) (all ())
