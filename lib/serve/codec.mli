(** The cache's payload codec, plus the binding of a {!Cache} into the
    evaluator's {!Refine.Eval.cache} hook.

    Payloads are {!Store.Monitor}'s [fxmetrics 1] records, the one
    metrics format, which decode bit-identical to the freshly computed
    record: the property that keeps warm re-sweep reports
    byte-identical to cold ones (the serve gate's contract). *)

(** {!Store.Monitor.encode}. *)
val encode : Refine.Eval.metrics -> string

(** {!Store.Monitor.decode}.  The cache layer treats [None] as a miss,
    so damaged or foreign payloads degrade performance, never
    correctness. *)
val decode : string -> Refine.Eval.metrics option

(** The key context: the evaluator version string, bumped whenever
    evaluation semantics or the payload format change, so old entries
    stop being addressable — invalidation without deletion. *)
val context : unit -> string

(** [eval_cache cache] — bind [cache] into the hook
    {!Refine.Eval.evaluate_compiled} and {!Sweep.Pool.run} accept:
    lookups decode, inserts encode, and the {!context} is pinned into
    every key.  Domain-safe, like {!Cache} itself. *)
val eval_cache : Cache.t -> Refine.Eval.cache
