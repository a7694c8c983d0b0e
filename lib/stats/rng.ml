(** Deterministic pseudo-random number generation.

    All stimuli in the library (PAM symbols, AWGN, timing offsets, the
    [error()] overruling noise) come from explicit generator states so
    experiments are exactly reproducible run-to-run — the reproduction
    tables in EXPERIMENTS.md depend on it.

    The core generator is SplitMix64 (Steele, Lea & Flood 2014): a tiny,
    well-distributed 64-bit mixer that needs no warm-up and splits
    cleanly into independent streams. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(** Rewind the generator to the stream of [create ~seed] — what
    [Sim.Env.reset] uses so every simulation run replays identical
    stimuli/noise. *)
let reseed t ~seed = t.state <- Int64.of_int seed

(* SplitMix64 output function. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* SplitMix64 next: advance by the golden gamma, then mix. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(** Independent child stream (SplitMix64 split). *)
let split t = { state = next_int64 t }

(* The top 53 bits as a float in [[0, 1)]. *)
let[@inline] unit_of bits =
  Int64.to_float (Int64.shift_right_logical bits 11)
  *. (1.0 /. 9007199254740992.0)

(** Uniform float in [[0, 1)] using the top 53 bits. *)
let float t = unit_of (next_int64 t)

(** Uniform float in [[lo, hi)]. *)
let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

(** Uniform in [[-h, h]] — the paper's [error(h)] injection model. *)
let uniform_sym t h = uniform t ~lo:(-.h) ~hi:h

(* SplitMix64's state after [k + 1] draws is [seed + (k + 1) * gamma]
   (mod 2^64), so any draw of a stream is computable on its own, and
   [(k + 1) * gamma] is shared by every stream's draw [k]. *)
let fill_uniform_sym_at ~seeds h k (dst : float array) off =
  let b = Array.length seeds in
  if off < 0 || off + b > Array.length dst then
    invalid_arg "Rng.fill_uniform_sym_at: row out of bounds";
  let advance = Int64.mul (Int64.of_int (k + 1)) golden_gamma in
  let lo = -.h in
  for l = 0 to b - 1 do
    let state = Int64.add (Int64.of_int (Array.unsafe_get seeds l)) advance in
    Array.unsafe_set dst (off + l) (lo +. ((h -. lo) *. unit_of (mix state)))
  done

(** [int t n] — uniform integer in [[0, n)]. *)
let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Stdlib.abs (Int64.to_int (next_int64 t)) mod n

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Standard normal via Box–Muller (polar form avoided for determinism —
    the basic form consumes exactly two uniforms per pair). *)
type gauss_state = { rng : t; mutable spare : float option }

let gauss_state rng = { rng; spare = None }

let gauss g =
  match g.spare with
  | Some z ->
      g.spare <- None;
      z
  | None ->
      let u1 =
        (* avoid log 0 *)
        let u = float g.rng in
        if u <= 0.0 then Float.min_float else u
      in
      let u2 = float g.rng in
      let r = sqrt (-2.0 *. log u1) in
      let theta = 2.0 *. Float.pi *. u2 in
      g.spare <- Some (r *. sin theta);
      r *. cos theta

(** Gaussian with explicit mean and standard deviation. *)
let gauss_ms g ~mean ~sigma = mean +. (sigma *. gauss g)

(** Random PAM-2 symbol (±1) — the binary PAM signalling of both paper
    examples. *)
let pam2 t = if bool t then 1.0 else -1.0

(** Random PAM-M symbol from the alphabet [±1, ±3, … ±(m-1)], normalized
    to peak ±1. *)
let pam t ~m =
  if m < 2 || m mod 2 <> 0 then invalid_arg "Rng.pam: m must be even >= 2";
  let k = int t m in
  let level = Float.of_int ((2 * k) - (m - 1)) in
  level /. Float.of_int (m - 1)
