(** The FIR designs: the direct-form filter of {!Dsp.Fir} behind an
    input signal [x] (range-annotated), optionally driving [out]. *)

(** The conformance workload: taps {!conformance_coefs}, 600 seeded
    uniform samples in ±1.5 through a saturating ⟨8,6⟩ input, delay
    line ⟨8,6⟩ and accumulator ⟨14,10⟩ (both saturating); probe
    [v[3]], no [out]. *)
val conformance : unit -> unit Design.t

val conformance_coefs : float array

(** The Fig. 4-scale low-pass: taps {!lowpass_coefs}, 3000 samples of
    ISI PAM through a wrapping ⟨8,6⟩ input; probe [out]. *)
val lowpass : unit -> unit Design.t

val lowpass_coefs : float array

(** The sweep workload: taps {!lowpass_coefs}, an untyped input, [n]
    (default 512) samples of uniform stimulus in ±1 whose stream is a
    pure function of the seed set before [reset]; probe [out].  Its
    compiled support draws the same samples lane by lane. *)
val sweep : ?n:int -> unit -> Design.seeded Design.t

(** The signals a sweep retypes, with their integer bits. *)
val sweep_specs : (string * int) list
