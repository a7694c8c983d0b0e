(** The parallel evaluation pool — wordlength exploration across OCaml 5
    domains.

    Runs a {!Generator.t}'s wave protocol over a {!Workload.t}: each
    wave is split into [jobs] contiguous shares, one per worker domain,
    each owning a private workload instance restored to the baseline
    snapshot before every candidate.  On the compiled path a share is
    one lane block ({!Refine.Eval.evaluate_lanes}).  The resulting
    report is byte-identical for any [jobs] value — the determinism
    contract the oracle's sweep gate enforces. *)

(** Per-wave progress callback payload. *)
type progress = { wave : int; evaluated : int; total_so_far : int }

(** A worker domain died outside the per-candidate containment (e.g.
    workload instance construction failed).  Raised only after every
    domain of the wave was joined — no abandoned domains, no silently
    unclaimed result slots.  A [Printexc] printer is registered. *)
exception Worker_failure of { worker : int; candidate : int; exn : exn }

(** [run ~workload ~generator ()] sweeps to generator exhaustion.

    [jobs] (default 1) is the worker-domain count; [1] evaluates in the
    calling domain.  [budget] caps the total number of candidates —
    waves are truncated, never reordered, so a budgeted sweep is still
    deterministic.  [on_wave] fires after each wave (progress
    reporting; called in the calling domain).

    [counters:true] gathers {!Trace.Counters} per candidate evaluation
    (returned in each entry's metrics and folded into the report's
    [agg_counters] in candidate-id order, so {!Report.counters_json} is
    byte-identical for any [jobs] — the oracle's trace gate enforces
    it).  When span collection is on ({!Trace.Spans.set_enabled}), each
    evaluation records a wall-clock span on its worker-domain lane; in
    a lane block a candidate's span runs from its preparation to the
    next candidate's, and the last one's includes the block's
    execution.

    [?cache] is a content-addressed evaluation cache hook
    ({!Refine.Eval.cache}), consulted on the compiled fast path only;
    interpreted and counter evaluations bypass it.  The hook must be
    domain-safe — every worker domain calls it concurrently
    ({!Serve.Cache}'s bindings are).  Because a hit returns exactly the
    metrics a fresh computation would produce, the report stays
    byte-identical cold vs warm and for any [jobs] — the serve gate's
    contract.

    [?checkpoint] is a crash-safety journal ({!Checkpoint}): every
    completed wave is durably recorded before the sweep advances, and a
    wave already journaled (same wave number, identical candidate list)
    is replayed instead of re-evaluated.  Because replayed metrics
    decode bit-identically and every report merge is commutative, a
    sweep killed at any instant and resumed produces a report
    byte-identical to the uninterrupted run, at any [jobs] — the chaos
    gate's contract.  Checkpointing composes with [?cache] (replayed
    waves touch neither).  [counters:true] with a checkpoint raises
    [Invalid_argument]: counters cannot round-trip through the journal.

    Graceful degradation: a candidate whose evaluation raises is
    retried once on a {e fresh} instance (which also replaces the
    worker's private instance for later candidates); a persistent
    failure is quarantined into the report's {!Report.failures} instead
    of aborting the sweep, so an injected or real fault yields a
    partial-but-deterministic report — byte-identical for any [jobs],
    quarantine list included.

    Raises [Invalid_argument] on [jobs < 1] or [budget < 1]. *)
val run :
  ?jobs:int ->
  ?budget:int ->
  ?cache:Refine.Eval.cache ->
  ?checkpoint:Checkpoint.t ->
  ?on_wave:(progress -> unit) ->
  ?counters:bool ->
  workload:Workload.t ->
  generator:Generator.t ->
  unit ->
  Report.t
