(** Pulse-amplitude modulation utilities.

    Both paper examples work on binary PAM (±1) signalling: the LMS
    equalizer slices ±1 decisions, and the timing-recovery loop of Fig. 5
    recovers the symbol clock of a PAM stream.  This module generates
    symbol streams, maps them through transmit pulses, and scores
    receiver decisions. *)

(** Deterministic ±1 symbol stream. *)
let symbols rng n = Array.init n (fun _ -> Stats.Rng.pam2 rng)

(** Deterministic PAM-M symbol stream on the normalized levels
    [±1/(m−1) … ±1]. *)
let symbols_m rng ~m n = Array.init n (fun _ -> Stats.Rng.pam rng ~m)

(** The normalized PAM-M constellation, ascending:
    [(2k − (m−1))/(m−1)] for [k = 0 … m−1]. *)
let levels ~m =
  if m < 2 || m mod 2 <> 0 then invalid_arg "Pam.levels: bad m";
  let span = Float.of_int (m - 1) in
  Array.init m (fun k -> ((2.0 *. Float.of_int k) -. span) /. span)

let sinc x =
  if Float.abs x < 1e-12 then 1.0
  else sin (Float.pi *. x) /. (Float.pi *. x)

(** Raised-cosine pulse with roll-off [beta], evaluated at [t] in symbol
    periods.  The classic Nyquist pulse used by the timing-recovery
    stimulus; [p 0 = 1], zero at nonzero integers.

    Near the removable singularity at [t = ±1/(2β)] the textbook form
    [sinc(t)·cos(πβt)/(1 − (2βt)²)] cancels catastrophically (both
    numerator and denominator vanish linearly), so inside a guard band
    around it we evaluate the exact stable rewrite in [u = |t| − 1/(2β)]:
    [cos(πβt) = −sin(πβu)] and [1 − (2βt)² = −4βu(1 + βu)] give

    [p(t) = (π/4) · sinc(t) · sinc(βu) / (1 + βu)],

    which has no cancellation (the [u → 0] limit is the classic
    [(π/4)·sinc(1/(2β))]). *)
let raised_cosine ~beta t =
  if beta < 0.0 || beta > 1.0 then invalid_arg "Pam.raised_cosine: beta";
  let abs_t = Float.abs t in
  if abs_t < 1e-9 then 1.0
  else
    let u = if beta > 0.0 then abs_t -. (1.0 /. (2.0 *. beta)) else 1.0 in
    if beta > 0.0 && Float.abs u < 1e-3 then
      Float.pi /. 4.0 *. sinc abs_t *. sinc (beta *. u)
      /. (1.0 +. (beta *. u))
    else
      let denom = 1.0 -. (2.0 *. beta *. abs_t) ** 2.0 in
      sinc abs_t *. cos (Float.pi *. beta *. abs_t) /. denom

(** Transmit waveform sample: [s(t) = Σ_k a_k · p(t − k)], [t] in symbol
    periods, pulse truncated to ±4 symbols. *)
let waveform_sample ?(beta = 0.35) (syms : float array) t =
  let span = 4 in
  let n = Array.length syms in
  let k0 = Float.to_int (Float.floor t) in
  let acc = ref 0.0 in
  for k = k0 - span to k0 + span do
    if k >= 0 && k < n then
      acc := !acc +. (syms.(k) *. raised_cosine ~beta (t -. Float.of_int k))
  done;
  !acc

(** Hard ±1 decision. *)
let slice v = if v >= 0.0 then 1.0 else -1.0

(** Symbol error count between a decision array and the transmitted
    symbols, ignoring the first [skip] decisions (filter/loop
    transients) and allowing a constant integer [lag].  [m] (default 2)
    selects the constellation the decisions are re-sliced onto —
    comparing an M-PAM stream with the hard ±1 {!slice} would count
    every inner level as an error. *)
let symbol_errors ?(skip = 0) ?(lag = 0) ?(m = 2) ~sent ~decided () =
  let n = min (Array.length decided - skip) (Array.length sent - skip - lag) in
  let errors = ref 0 and total = ref 0 in
  for i = skip to skip + n - 1 do
    if i + lag >= 0 && i + lag < Array.length sent then begin
      incr total;
      if Slicer.decide_pam ~m decided.(i) <> sent.(i + lag) then incr errors
    end
  done;
  (!errors, !total)

(** Half-width of the lag window {!best_ser} and {!best_mer} search. *)
let max_lag = 8

(** Best-lag symbol error rate over a small lag window (receivers have an
    a-priori-unknown integer delay). *)
let best_ser ?(skip = 0) ?(m = 2) ~sent ~decided () =
  let best = ref 1.0 in
  for lag = -max_lag to max_lag do
    let e, t = symbol_errors ~skip ~lag ~m ~sent ~decided () in
    if t > 0 then best := Float.min !best (Float.of_int e /. Float.of_int t)
  done;
  !best

(** Best-lag MER of soft symbol-rate samples against the transmitted
    constellation points (same lag-window rationale as {!best_ser}).
    Returns [(mer, lag)] for the alignment with the highest modulation
    error ratio; [(neg_infinity, 0)] when no lag yields any overlap. *)
let best_mer ?(skip = 0) ~sent ~received () =
  let best = ref Float.neg_infinity and best_lag = ref 0 in
  for lag = -max_lag to max_lag do
    let mer = Stats.Mer.create () in
    Array.iteri
      (fun i y ->
        if i >= skip && i + lag >= 0 && i + lag < Array.length sent then
          Stats.Mer.add mer ~reference:sent.(i + lag) ~actual:y)
      received;
    if Stats.Mer.count mer > 0 then begin
      let db = Stats.Mer.db mer in
      if db > !best then begin
        best := db;
        best_lag := lag
      end
    end
  done;
  (!best, !best_lag)
