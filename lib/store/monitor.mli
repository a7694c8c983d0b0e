(** The bit-exact codec of an evaluation's {!Refine.Eval.metrics}: the
    one payload both {!Serve.Cache} entries (through {!Serve.Codec})
    and {!Sweep.Checkpoint} wave records store.

    The payload is seven labelled lines:

    {v
    fxmetrics 1
    sqnr <float|none>
    bits <int>
    ovf <int>
    errmax <float>
    pv <none | the six raw value-monitor fields>
    pe <none | the twelve raw error-monitor fields>
    v}

    Every float travels as a [%h] hex literal ([0x1.999999999999ap-4],
    with [nan]/[infinity] spelled out), which [float_of_string]
    reverses exactly.  The monitors travel through
    {!Stats.Running.raw} / {!Stats.Err_stats.raw} — the exact
    accumulator fields — so a rebuilt monitor merges bit for bit like
    the original, and a report built from decoded metrics is
    byte-identical to one built from fresh ones. *)

(** The payload.  Raises [Invalid_argument] on a counter-carrying
    record: counters are per-run observations, not results, and the
    compiled evaluation path never produces them. *)
val encode : Refine.Eval.metrics -> string

(** Strict inverse of {!encode}: [None] on any deviation (another
    header, a missing or extra line, a wrong label, a malformed number,
    a wrong monitor arity). *)
val decode : string -> Refine.Eval.metrics option
