(** Bit-exact text codec for evaluation scalars and probe monitors —
    the pieces both {!Serve.Codec} (cache payloads) and
    {!Sweep.Checkpoint} (wave records) lay their own lines out from.

    Every float travels as a [%h] hex literal ([0x1.999999999999ap-4],
    with [nan]/[infinity] spelled out), which [float_of_string]
    reverses exactly.  The monitors travel through
    {!Stats.Running.raw} / {!Stats.Err_stats.raw} — the exact
    accumulator fields — so a rebuilt monitor merges bit for bit like
    the original.  Decoders are strict: [None] on any deviation. *)

(** [%h]. *)
val float_lit : float -> string

(** [float_lit], with [None] as [none]. *)
val opt_lit : float option -> string

(** Inverse of {!opt_lit}: [Some None] for [none]. *)
val opt_of_lit : string -> float option option

(** [field ~label line] — the text after ["<label> "], if [line] starts
    with it and has more. *)
val field : label:string -> string -> string option

(** The value-monitor line: [pv none], or [pv] and the six raw
    fields. *)
val pv_line : Stats.Running.t option -> string

(** The error-monitor line: [pe none], or [pe] and the twelve raw
    fields. *)
val pe_line : Stats.Err_stats.t option -> string

(** Inverses of {!pv_line} and {!pe_line}: [Some None] for [none],
    [None] on a wrong label, a malformed float or a wrong arity. *)

val pv_of_line : string -> Stats.Running.t option option
val pe_of_line : string -> Stats.Err_stats.t option option
