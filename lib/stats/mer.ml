(** Modulation error ratio / error vector magnitude.

    Constellation-quality metrics for the symbol-synchronizer workload:
    where SQNR compares a fixed-point sequence against its own float
    shadow, MER compares receiver decisions-instant samples against the
    {e ideal transmitted constellation points},

    [MER = 10 log10 (Σ |ref|² / Σ |ref − rx|²)],

    so it folds in residual timing error, ISI, and channel noise besides
    quantization.  EVM is the same ratio the other way up, as an RMS
    fraction of the reference power: [EVM_rms = sqrt(Σ|ref − rx|²/Σ|ref|²)]
    (often quoted in percent). *)

type t = {
  mutable ref_energy : float;
  mutable err_energy : float;
  mutable count : int;
}

let create () = { ref_energy = 0.0; err_energy = 0.0; count = 0 }

let reset t =
  t.ref_energy <- 0.0;
  t.err_energy <- 0.0;
  t.count <- 0

(** Accumulate one (ideal constellation point, received sample) pair.
    Pairs with a non-finite member are skipped, mirroring {!Sqnr.add}:
    a faulted stream must not poison the energy sums. *)
let add t ~reference ~actual =
  if Float.is_finite reference && Float.is_finite actual then begin
    t.ref_energy <- t.ref_energy +. (reference *. reference);
    let e = reference -. actual in
    t.err_energy <- t.err_energy +. (e *. e);
    t.count <- t.count + 1
  end

let count t = t.count

(** MER in dB; [+∞] with zero error energy, [-∞] with error but no
    reference energy. *)
let db t =
  if t.err_energy = 0.0 then Float.infinity
  else if t.ref_energy = 0.0 then Float.neg_infinity
  else 10.0 *. Float.log10 (t.ref_energy /. t.err_energy)

(** RMS error-vector magnitude as a fraction of the reference RMS
    ([nan] with no reference energy).  [evm = 10^(−mer/20)]. *)
let evm_rms t =
  if t.ref_energy = 0.0 then Float.nan
  else sqrt (t.err_energy /. t.ref_energy)

(** MER of two equal-length sequences. *)
let of_arrays ~reference ~actual =
  if Array.length reference <> Array.length actual then
    invalid_arg "Mer.of_arrays: length mismatch";
  let t = create () in
  Array.iteri (fun i r -> add t ~reference:r ~actual:actual.(i)) reference;
  db t

let pp ppf t =
  Format.fprintf ppf "%.1f dB (evm %.2f%%, n=%d)" (db t)
    (100.0 *. evm_rms t) t.count
