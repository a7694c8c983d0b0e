(** Running (streaming) statistics.

    Welford's online algorithm for mean/variance plus min/max and maximum
    absolute value, in O(1) memory per monitored signal.  This is what
    makes the paper's single-run monitoring practical: "the error
    difference statistics are effectively gathered for each signal in the
    system (no need for huge signal databases)" (§4.2). *)

(* A summary is six floats — count, mean, m2 (sum of squared deviations
   from the mean), min, max, max_abs — at [i + k * stride] of a float
   array.  One summary is a 6-array (stride 1); {!Lanes} keeps B of
   them field-major (stride B), so single and per-lane accumulation go
   through the same [update].  The count is a float so the state is one
   flat float array: [add], which runs three times per signal
   assignment in the simulation hot path, stores without allocating.
   Counts are exact as floats far beyond any realistic run length
   (< 2^53). *)
type t = float array

let fields = 6

let init_at (a : float array) i stride =
  Array.unsafe_set a i 0.0;
  Array.unsafe_set a (i + stride) 0.0;
  Array.unsafe_set a (i + (2 * stride)) 0.0;
  Array.unsafe_set a (i + (3 * stride)) Float.infinity;
  Array.unsafe_set a (i + (4 * stride)) Float.neg_infinity;
  Array.unsafe_set a (i + (5 * stride)) 0.0

(* Literals, not [Array.make]/[Array.copy]: a six-float array built
   inline is one minor allocation, where the stdlib goes through C. *)
let create () = [| 0.0; 0.0; 0.0; Float.infinity; Float.neg_infinity; 0.0 |]
let reset t = init_at t 0 1

let[@inline] gather (a : float array) i stride =
  [|
    Array.unsafe_get a i;
    Array.unsafe_get a (i + stride);
    Array.unsafe_get a (i + (2 * stride));
    Array.unsafe_get a (i + (3 * stride));
    Array.unsafe_get a (i + (4 * stride));
    Array.unsafe_get a (i + (5 * stride));
  |]

let copy t = gather t 0 1

(* Welford's step on the summary at [i]/[stride].  Non-finite samples
   are skipped entirely: a NaN would poison every accumulator and a
   single ±∞ (an injected fault or exploded range) would pin min/max
   and destroy the mean — the monitors must keep reporting on the
   finite part of a faulted stream. *)
let[@inline] update (a : float array) i stride v =
  if Float.is_finite v then begin
    let count = Array.unsafe_get a i +. 1.0 in
    Array.unsafe_set a i count;
    let j = i + stride in
    let mean = Array.unsafe_get a j in
    let delta = v -. mean in
    let mean = mean +. (delta /. count) in
    Array.unsafe_set a j mean;
    let j = j + stride in
    Array.unsafe_set a j (Array.unsafe_get a j +. (delta *. (v -. mean)));
    let j = j + stride in
    if v < Array.unsafe_get a j then Array.unsafe_set a j v;
    let j = j + stride in
    if v > Array.unsafe_get a j then Array.unsafe_set a j v;
    let j = j + stride in
    let m = Float.abs v in
    if m > Array.unsafe_get a j then Array.unsafe_set a j m
  end

let add t v = update t 0 1 v

(* the sample stays in the caller's float array: no float crosses the
   call boxed *)
let add_at t (src : float array) i = update t 0 1 src.(i)

(* the sample count, as the float it is stored as *)
let[@inline] n t = Array.unsafe_get t 0
let count t = Float.to_int (n t)
let is_empty t = n t = 0.0
let mean t = if n t = 0.0 then 0.0 else t.(1)
let min_value t = t.(3)
let max_value t = t.(4)
let max_abs t = t.(5)

(** Population variance (the quantization-noise convention: the observed
    samples *are* the population of errors produced by this run). *)
let variance t = if n t = 0.0 then 0.0 else t.(2) /. n t

let stddev t = sqrt (variance t)

(** Sample variance (n-1 denominator) for confidence-style uses. *)
let sample_variance t =
  if n t < 2.0 then 0.0 else t.(2) /. (n t -. 1.0)

(** Merge two summaries (Chan's parallel update). *)
let merge a b =
  if n a = 0.0 then copy b
  else if n b = 0.0 then copy a
  else begin
    let nf = n a +. n b in
    let delta = b.(1) -. a.(1) in
    let mean = a.(1) +. (delta *. n b /. nf) in
    let m2 = a.(2) +. b.(2) +. (delta *. delta *. n a *. n b /. nf) in
    [|
      nf;
      mean;
      m2;
      Float.min a.(3) b.(3);
      Float.max a.(4) b.(4);
      Float.max a.(5) b.(5);
    |]
  end

(** Observed range as an interval-style pair; [None] when nothing was
    recorded. *)
let range t = if n t = 0.0 then None else Some (t.(3), t.(4))

(* Raw-state round-trip: the exact internal fields, in a fixed order,
   so an evaluation cache can persist a summary and rebuild it
   bit-identically (merges over rebuilt summaries then reproduce the
   original folds byte-for-byte). *)
let raw = copy

let of_raw a =
  if Array.length a <> fields then
    invalid_arg "Stats.Running.of_raw: expected 6 fields";
  copy a

let pp ppf t =
  if n t = 0.0 then Format.fprintf ppf "(no samples)"
  else
    Format.fprintf ppf "n=%d min=%.4g max=%.4g mu=%.4g sigma=%.4g m^=%.4g"
      (count t) t.(3) t.(4) (mean t) (stddev t) t.(5)

(* B summaries, field-major: field [k] of lane [l] at [k * b + l]. *)
module Lanes = struct
  type summary = t
  type t = { b : int; a : float array }

  let create b =
    if b < 1 then invalid_arg "Stats.Running.Lanes.create: b < 1";
    let a = Array.make (fields * b) 0.0 in
    for l = 0 to b - 1 do
      init_at a l b
    done;
    { b; a }

  let check_row t name len off =
    if off < 0 || off + t.b > len then
      invalid_arg ("Stats.Running.Lanes." ^ name ^ ": row out of bounds")

  let add_row t (src : float array) off =
    check_row t "add_row" (Array.length src) off;
    let a = t.a and b = t.b in
    for l = 0 to b - 1 do
      update a l b (Array.unsafe_get src (off + l))
    done

  let add_diff t (x : float array) ox (y : float array) oy =
    check_row t "add_diff" (Array.length x) ox;
    check_row t "add_diff" (Array.length y) oy;
    let a = t.a and b = t.b in
    for l = 0 to b - 1 do
      update a l b (Array.unsafe_get x (ox + l) -. Array.unsafe_get y (oy + l))
    done

  let get t l : summary =
    if l < 0 || l >= t.b then invalid_arg "Stats.Running.Lanes.get: lane";
    gather t.a l t.b
end
