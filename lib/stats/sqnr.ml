(** Signal-to-quantization-noise ratio measurement.

    The paper verifies a refinement's quality with SQNR on selected
    outputs (§6: 39.8 dB with only the input quantized, 39.1 dB after all
    signals were refined — i.e. the full refinement costs well under one
    dB).  SQNR is measured between a reference (float) sequence and a
    quantized (fixed) sequence:

    [SQNR = 10 log10 (Σ ref² / Σ (ref − fix)²)]. *)

type t = {
  mutable signal_energy : float;
  mutable noise_energy : float;
  mutable count : int;
}

let create () = { signal_energy = 0.0; noise_energy = 0.0; count = 0 }

let reset t =
  t.signal_energy <- 0.0;
  t.noise_energy <- 0.0;
  t.count <- 0

(** [add t ~reference ~actual] accumulates one sample pair.  Pairs with
    a non-finite member are skipped: a NaN or injected ±∞ would poison
    both energy sums for good, and SQNR must keep scoring the finite
    part of a faulted stream. *)
let add t ~reference ~actual =
  if Float.is_finite reference && Float.is_finite actual then begin
    t.signal_energy <- t.signal_energy +. (reference *. reference);
    let e = reference -. actual in
    t.noise_energy <- t.noise_energy +. (e *. e);
    t.count <- t.count + 1
  end

let count t = t.count
let signal_energy t = t.signal_energy

(** SQNR in dB.  [infinity] when no noise was observed; [neg_infinity]
    when there is noise but no signal. *)
let db t =
  if t.noise_energy = 0.0 then Float.infinity
  else if t.signal_energy = 0.0 then Float.neg_infinity
  else 10.0 *. Float.log10 (t.signal_energy /. t.noise_energy)

(** SQNR of two equal-length sequences. *)
let of_arrays ~reference ~actual =
  if Array.length reference <> Array.length actual then
    invalid_arg "Sqnr.of_arrays: length mismatch";
  let t = create () in
  Array.iteri (fun i r -> add t ~reference:r ~actual:actual.(i)) reference;
  db t

(** Theoretical SQNR of quantizing a full-scale uniform signal with [b]
    effective fractional bits relative to unit amplitude:
    ≈ 6.02·b + 4.77 − PAR dB; exposed mostly for tests/benches to
    cross-check measured values. *)
let theoretical_uniform_db ~amplitude ~step =
  if step <= 0.0 || amplitude <= 0.0 then
    invalid_arg "Sqnr.theoretical_uniform_db";
  (* signal power A²/3 (uniform over ±A), noise power q²/12 *)
  10.0 *. Float.log10 (amplitude *. amplitude /. 3.0 /. (step *. step /. 12.0))

let pp ppf t = Format.fprintf ppf "%.1f dB (n=%d)" (db t) t.count
