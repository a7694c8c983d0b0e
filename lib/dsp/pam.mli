(** Pulse-amplitude modulation utilities: symbol streams, Nyquist
    pulses, decision scoring — the signalling of both paper examples. *)

(** Deterministic ±1 symbol stream. *)
val symbols : Stats.Rng.t -> int -> float array

(** Deterministic PAM-M symbol stream on levels [±1/(m−1) … ±1]. *)
val symbols_m : Stats.Rng.t -> m:int -> int -> float array

(** The normalized PAM-M constellation, ascending ([m] even, ≥ 2). *)
val levels : m:int -> float array

(** Raised-cosine pulse at [t] (symbol periods), roll-off [beta] in
    [[0, 1]]; [p 0 = 1], zero at nonzero integers.  Evaluated by an
    exact cancellation-free rewrite inside a guard band around the
    removable singularity at [t = ±1/(2β)]. *)
val raised_cosine : beta:float -> float -> float

(** Transmit waveform sample [s(t) = Σ_k a_k·p(t − k)], pulse truncated
    to ±4 symbols. *)
val waveform_sample : ?beta:float -> float array -> float -> float

(** Hard ±1 decision. *)
val slice : float -> float

(** Symbol error count at a given integer [lag], ignoring the first
    [skip] decisions; returns [(errors, counted)].  [m] (default 2) is
    the PAM constellation size the decisions are re-sliced onto. *)
val symbol_errors :
  ?skip:int -> ?lag:int -> ?m:int -> sent:float array ->
  decided:float array -> unit -> int * int

(** Best symbol error rate over a ±8 lag window. *)
val best_ser :
  ?skip:int -> ?m:int -> sent:float array ->
  decided:float array -> unit -> float

(** Best-lag modulation error ratio of soft symbol-rate samples against
    the sent constellation points over a ±8 lag window; [(mer_db, lag)]. *)
val best_mer :
  ?skip:int -> sent:float array -> received:float array ->
  unit -> float * int
