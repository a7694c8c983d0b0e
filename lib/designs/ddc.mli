(** The DDC front ends of {!Dsp.Ddc}: NCO, CORDIC mixer and two order-2
    CIC decimators. *)

(** Decimation rate and CIC order of the conformance workload. *)
val rate : int

val order : int

(** The conformance workload: rate 8, NCO at 0.21 cycles/sample, on
    1200 seeded uniform samples in ±0.9 through a saturating ⟨10,8⟩
    input; probe the I output. *)
val conformance : unit -> unit Design.t

(** The cable-modem front end of the experiments' summary: rate 4, NCO
    at 5/32 cycles/sample, 3000 samples of a 0.7-amplitude IF tone at
    the NCO frequency plus seeded uniform noise of 0.05 through a
    ⟨10,8⟩ input; the NCO phase annotated [0, 1] and the CIC
    integrators designer-typed to wrap at the Hogenauer width ⟨14,8⟩
    with floor rounding; probe the I output. *)
val frontend : unit -> unit Design.t
