(** The CORDIC rotators of {!Dsp.Cordic}: a deep feed-forward chain. *)

(** The conformance workload: 10 stages, every stage signal a
    saturating ⟨12,10⟩, 400 seeded rotations of x, y ∈ ±0.55 by
    z ∈ ±1.2; probe the last stage's [x]. *)
val conformance : unit -> unit Design.t

val conformance_iters : int

(** The 12-stage rotator refined by [fxrefine cordic]: unit-circle
    vectors and angles |z| ≤ 1.5 from stimulus seed [seed] through
    ⟨12,10⟩ inputs [xin], [yin], [zin], [n] rotations per run; probe
    [cor_x[12]]; the parts are the rotator block. *)
val rotator : n:int -> seed:int -> unit -> Dsp.Cordic.t Design.t
