(** The closed ML-TED symbol synchronizer: {!Dsp.Synchronizer} with the
    decision-directed ML detector on drifting-τ 4-PAM (τ from 0.3,
    drifting 1e-4 per sample, carrier phase 0.05, noise 0.01) at two
    samples per symbol, with §6.1's knowledge ranges
    ({!Timing.set_knowledge_ranges}); probe [out]. *)

type parts = {
  sy : Dsp.Synchronizer.t;
  sent : float array;  (** the transmitted symbols *)
  output : Sim.Channel.t;  (** the recorded decision-instant samples *)
  decisions : Sim.Channel.t;  (** the recorded sliced symbols *)
}

(** [n_symbols] (default 700) symbols from stimulus seed [seed]
    (default 463) through a saturating ⟨10,8⟩ input annotated ±1.6. *)
val build : ?n_symbols:int -> ?seed:int -> unit -> parts Design.t

(** §6.1's knowledge-based overrule.  The NCO phase register
    [nco_eta]'s error monitoring is meaningless under decision-steered
    feedback, so the designer fixes its error() model before
    refinement: [overrule_nco_phase d base] injects the half-width of
    {!Timing.config}'s LSB on [d]'s [nco_eta] (the annotation survives
    [reset]) and returns [Timing.config base] with that half-width as
    [nco_eta]'s error override. *)
val overrule_nco_phase :
  parts Design.t -> Refine.Flow.config -> Refine.Flow.config

(** The sweep workload: [n_symbols] (default 160) symbols per run
    through an untyped input annotated ±2; the stimulus of the seed
    set before [reset] is [31 + 7919·seed].  The instance keeps the
    stimulus tables of its last 64 seeds.  It has no compiled support:
    the loop's strobe/hold control flow is data-dependent, so a frozen
    one-cycle extraction is not clock-true for it. *)
val sweep : ?n_symbols:int -> unit -> Design.seeded Design.t

(** The signals a sweep retypes, with their integer bits. *)
val sweep_specs : (string * int) list
