(** Pinned verification exemplars — small closed graphs with known
    verdicts, used by the regression tests, the conformance gate and
    the documentation recipe.

    The biquad is the classic MSB-provisioning story: a stable 2nd
    order recursion [y = Q_acc(xq + 1.25·y1 − 0.625·y2)] whose
    worst-case gain (Σ|h| ≈ 5.3 over x ∈ [−1, 1]) exceeds the ±4 range
    of a 5-bit/f=2 accumulator but fits the ±8 range of the 6-bit one:
    one MSB flips the no-overflow verdict from Refuted to Proved.

    The pair is built here by hand, not from [Dsp.Biquad.to_sfg]: that
    graph has no quantizers, adds the feed-forward taps and prefixes
    every name with [bq_], so it cannot reproduce the pinned verdicts
    and [verify_*.stim] goldens unchanged. *)

(** [biquad ~acc_bits ()] — input [x ∈ [−1, 1]] through a 3-bit/f=1
    quantizer, accumulator quantized to [acc_bits] total bits (f = 2,
    two's complement, wrap, round-off). *)
val biquad : acc_bits:int -> unit -> Sfg.Graph.t

(** [biquad ~acc_bits:5 ()] — under-provisioned: no-overflow is
    refutable. *)
val biquad_under : unit -> Sfg.Graph.t

(** [biquad ~acc_bits:6 ()] — the one-bit MSB repair: no-overflow is
    provable. *)
val biquad_repaired : unit -> Sfg.Graph.t

(** Named exemplars for CLI/gate lookup:
    [("biquad-under", biquad_under); ("biquad-repaired", biquad_repaired)]. *)
val all : (string * (unit -> Sfg.Graph.t)) list
