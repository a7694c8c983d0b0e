(** One-shot candidate evaluation — the inner step of every wordlength
    search, factored out of {!Flow}: apply a per-signal dtype
    assignment, reset, run one stimulus set, read the monitors back.
    This is the entry point the parallel sweep engine drives, once per
    candidate point, on a private design instance. *)

(** The monitor read-back of one evaluation. *)
type metrics = {
  sqnr_db : float option;
      (** {!Flow.sqnr_db} at the probe ([None]: no samples) *)
  total_bits : int;  (** Σ n over all signals with a declared dtype *)
  overflow_count : int;  (** Σ overflow events over all signals *)
  probe_err_max : float;
      (** max |ε_p| at the probe; [0.] without a probe *)
  probe_values : Stats.Running.t option;
      (** copy of the probe's value monitor (mergeable) *)
  probe_err : Stats.Err_stats.t option;
      (** copy of the probe's error monitor (mergeable) *)
  counters : Trace.Counters.t option;
      (** event counters over this evaluation's run (only when requested
          with [~counters:true]; mergeable) *)
}

(** Σ n over the environment's typed signals. *)
val total_bits : Sim.Env.t -> int

(** Σ overflow events over the environment's signals. *)
val overflow_count : Sim.Env.t -> int

(** Retype exactly the named signals.  Raises [Invalid_argument] on an
    unknown name — a sweep candidate names its signals explicitly, so a
    miss is a generator bug, not a partial type definition. *)
val apply_assigns : Sim.Env.t -> (string * Fixpt.Dtype.t) list -> unit

(** [evaluate ~assigns ~probe design] applies [assigns], resets, runs
    once, and gathers {!metrics} (probe resolution as {!Flow.sqnr_db_at}:
    unknown probe raises).

    [counters:true] attaches a fresh {!Trace.Counters} sink for exactly
    this evaluation's run (reset-hook initialization included, like the
    env monitors) and returns it in [metrics.counters]; a sink the
    caller had attached is restored afterwards. *)
val evaluate :
  ?assigns:(string * Fixpt.Dtype.t) list ->
  ?probe:string ->
  ?counters:bool ->
  Flow.design ->
  metrics

(** What a workload must provide for its candidates to be evaluated on
    the compiled executor instead of the clock-true simulator. *)
type compiled_eval = {
  extract : unit -> Sfg.Graph.t;
      (** record one cycle of the (just reset, freshly retyped) design
          and return its closed flowgraph.  Called once per lane block:
          candidates that assign the same signals must extract the same
          graph up to the types of those signals (their quantizers, and
          the ranges of their unannotated inputs), which the block
          substitutes per lane *)
  cycles : int;  (** stimulus length of one run *)
  stimulus : seeds:int array -> string -> Compile.feed;
      (** [stimulus ~seeds name] — the row filler of input node [name]
          for a block whose lane [l] runs under stimulus seed
          [seeds.(l)]: [stimulus ~seeds name step dst off] writes to
          [dst.(off + l)] the {e same} sample the design's own
          [reset]/[run] pair would feed [name] at [step] under
          [seeds.(l)], for every lane.  Pure in all its arguments.
          Applied once per block and input node; the result runs once
          per step, so its per-lane loop is where the stimulus cost
          sits *)
}

(** The hook a content-addressed evaluation cache plugs into
    {!evaluate_compiled}.  The record decouples this library from the
    cache's storage ({!Serve.Cache} provides the standard store): the
    evaluator only computes keys and calls [lookup]/[insert].  A hook
    that raises is degraded to a miss (lookup) or a no-op (insert) — a
    broken cache must never fail an evaluation. *)
type cache = {
  context : string;
      (** caller-pinned disambiguator folded into every key: evaluator
          version, fault plan, … — bump it to invalidate en masse *)
  lookup : string -> metrics option;
      (** [lookup key] — the previously inserted metrics, if any *)
  insert : string -> metrics -> unit;
      (** [insert key m] — record a freshly computed result *)
}

(** [cache_key ~design ~assigns ~probe ~seed ~cycles ~context] — the
    content address of one compiled evaluation: an MD5 hex digest over
    canonical JSON assembling the extracted graph's
    {!Sfg.Graph.canonical_json} ([design]), the explicit assignment
    list, the probe, the stimulus seed, the run length, and the
    caller's [context] string.  Deterministic across processes and
    runs — equal inputs give equal keys, and any bit-level difference
    in a numeric parameter changes the graph JSON and hence the key. *)
val cache_key :
  design:string ->
  assigns:(string * Fixpt.Dtype.t) list ->
  probe:string option ->
  seed:int ->
  cycles:int ->
  context:string ->
  string

(** The string {!cache_key} digests. *)
val key_source :
  design:string ->
  assigns:(string * Fixpt.Dtype.t) list ->
  probe:string option ->
  seed:int ->
  cycles:int ->
  context:string ->
  string

(** The cache keys of one lane block, spliced: {!cache_key} over each
    lane's own graph, without building or rendering that graph. *)
type lane_keys

(** [lane_keys g ~sites ~assigns ~probe ~cycles ~context] — the keys of
    the lanes whose graphs are [g], extracted under [assigns], with
    other types at [g]'s type sites.  [sites] maps a node id to the
    index in [assigns] of the signal whose type the node carries: a
    [Quantize] node casts to that type, an [Input] node's range is that
    type's range.  [g] is rendered once, as an {!Sfg.Graph.template}
    with holes at the sites. *)
val lane_keys :
  Sfg.Graph.t ->
  sites:(int, int) Hashtbl.t ->
  assigns:(string * Fixpt.Dtype.t) list ->
  probe:string option ->
  cycles:int ->
  context:string ->
  lane_keys

(** [splice_key ks ~assigns ~seed] — {!cache_key} of the lane typed
    [assigns] (the block's signals, in the block's order) under
    stimulus seed [seed]: the template with each hole filled with the
    lane's type, then the lane's assignment list and the tail.  A lane
    typed like the previous one ({!Fixpt.Dtype.equal}, element by
    element) keeps that lane's rendering and changes only the tail;
    the source is built in a buffer the block reuses. *)
val splice_key :
  lane_keys -> assigns:(string * Fixpt.Dtype.t) list -> seed:int -> string

(** The string {!splice_key} digests. *)
val splice_source :
  lane_keys -> assigns:(string * Fixpt.Dtype.t) list -> seed:int -> string

(** One candidate of a lane block ({!evaluate_lanes}). *)
type lane = {
  assigns : (string * Fixpt.Dtype.t) list;  (** as {!apply_assigns} *)
  seed : int;  (** stimulus seed ([compiled_eval.stimulus ~seed]) *)
  prepare : unit -> unit;
      (** put the design back in this candidate's starting state
          (baseline restore, stimulus seed) — called before each of its
          preparations *)
}

(** [evaluate_lanes ?probe ?cache ce design ~count ~lane] —
    {!evaluate_compiled} for a block of [count] candidates on one design
    instance, as the lanes of one compiled program.  [lane i] describes
    candidate [i]; it is called again wherever the block needs it, so
    the block keeps no per-candidate type lists alive.

    Every candidate is prepared in order ([prepare], {!apply_assigns},
    one [design.reset], {!total_bits}).  The candidates that assign the
    same signals as [lane 0] are the block's lanes.  One graph is
    extracted, right after the first lane's preparation; the lanes
    differ from it only in their types.  With a cache, each lane is
    keyed right after its preparation — {!splice_key} over the block's
    {!lane_keys}, byte-identical to {!cache_key} over a one-candidate
    extraction — and looked up, so every lane is looked up before any
    insert.  The misses (all lanes without a cache) run as one
    dual-lattice {!Compile} program with per-lane quantizers, stimulus
    and probe monitors, and are inserted in candidate order.

    Result [i] is candidate [i]'s, bit-identical to
    {!evaluate_compiled} on it alone (the lane-equivalence property).
    A candidate with a different assigned-signal list, or whose
    preparation raises, takes that one-candidate path in place; if the
    block cannot be extracted, keyed, compiled or run (e.g. NaN
    reaching a quantizer in any lane), every lane not answered by the
    cache does.  A one-candidate path that still raises gives that
    candidate's [Error]; nothing else raises. *)
val evaluate_lanes :
  ?probe:string ->
  ?cache:cache ->
  compiled_eval ->
  Flow.design ->
  count:int ->
  lane:(int -> lane) ->
  (metrics, exn) result array

(** [evaluate_compiled ~assigns ~probe ~seed ce design] — {!evaluate},
    but on the flat-schedule executor: apply [assigns], reset, extract
    the candidate's graph, {!Compile.compile} it (dual-lattice), run
    [ce.cycles] ticks of [ce.stimulus ~seed], and rebuild {!metrics}
    from the program's probe chain and fused overflow counters.  It is
    the one-lane call of {!evaluate_lanes}, on the design as the
    caller left it.

    For a design/probe whose recorded pipeline matches the clock-true
    monitors (no error injection at the probe, saturation annotations
    that never clamp on the run's stimulus), the metrics are
    bit-identical to {!evaluate}'s — the property the sweep determinism
    gate and [test_compile] rely on.

    Falls back to {!evaluate} (interpreted) when the extractor cannot
    close the design, compilation fails, or the probe cannot be located
    in the extracted graph.  [metrics.counters] is always [None]: a
    counter-attached evaluation observes env events the compiled run
    does not generate, so the pool routes [~counters:true] requests to
    the interpreter.

    [?cache] short-circuits the compile-and-run on a content-address
    hit (see {!cache}); misses are inserted after computing.  The
    interpreter fallback is never cached — its inputs are not captured
    by the key. *)
val evaluate_compiled :
  ?assigns:(string * Fixpt.Dtype.t) list ->
  ?probe:string ->
  ?cache:cache ->
  seed:int ->
  compiled_eval ->
  Flow.design ->
  metrics
