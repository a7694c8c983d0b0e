(** Bit-exact payload codec for cached evaluation results, plus the
    binding of a {!Cache} into the evaluator's {!Refine.Eval.cache}
    hook.

    Floats travel as exact [%h] hex literals and the probe monitors
    through {!Stats.Running.raw} / {!Stats.Err_stats.raw}, so a decoded
    record is bit-indistinguishable from the freshly computed one — the
    property that keeps warm re-sweep reports byte-identical to cold
    ones (the serve gate's contract). *)

(** Payload format version (the [fxmetrics N] header). *)
val version : int

(** Serialize metrics to the line-based payload.  Raises
    [Invalid_argument] on a counter-carrying record (counters are
    observational per-run state, not cacheable results; the compiled
    evaluation path never produces them). *)
val encode : Refine.Eval.metrics -> string

(** Strictly parse an {!encode}d payload; [None] on any deviation
    (wrong header, malformed field, wrong monitor arity).  The cache
    layer treats [None] as a miss, so damaged or foreign payloads
    degrade performance, never correctness. *)
val decode : string -> Refine.Eval.metrics option

(** The key context: the evaluator version string, bumped whenever
    evaluation semantics or this payload format change, so old entries
    stop being addressable — invalidation without deletion. *)
val context : unit -> string

(** [eval_cache cache] — bind [cache] into the hook
    {!Refine.Eval.evaluate_compiled} and {!Sweep.Pool.run} accept:
    lookups decode, inserts encode, and the {!context} is pinned into
    every key.  Domain-safe, like {!Cache} itself. *)
val eval_cache : Cache.t -> Refine.Eval.cache
