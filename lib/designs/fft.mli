(** The 16-point radix-2 FFT of {!Dsp.Fft}: the bit-growth workload. *)

type parts = {
  fft : Dsp.Fft.t;
  stimulus : float array;  (** the real inputs, 16 per transform *)
}

(** 150 transforms of seeded uniform real samples in ±1 through ⟨10,8⟩
    inputs [xr[i]] annotated ±1, imaginary parts 0; [scale] selects the
    ½-per-stage architecture; probe the last stage's [fft_re4[0]]. *)
val build : scale:bool -> parts Design.t
