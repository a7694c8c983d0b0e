(** Quantization of ideal (float) values through a {!Dtype.t}.

    This is the operation the design environment performs on every signal
    assignment (§2.2): arithmetic runs in floating point, and the result
    is cast through the destination type's quantization scheme — LSB
    rounding first, then MSB overflow handling.

    Quantization is performed on an integer grid held in [int64] whenever
    the scaled value fits (exact semantics); values beyond the [int64]
    range — which occur during range-propagation explosions — fall back
    to a float path with the same wrap/saturate behaviour.

    Because this cast runs once per signal assignment it is the hottest
    operation of the whole simulation engine.  All per-type constants
    (integer code bounds, step, representable range, mode flags) are
    precomputed once into a {!compiled} record; {!exec} then performs a
    cast with no repeated [2.0 ** lsb] evaluation or bound derivation.
    {!quantize} keeps the one-shot API on top of a memo table.

    The in-range case — finite input, scaled magnitude below 2^53, code
    inside the format — takes a short path: multiply by the exact
    reciprocal of the power-of-two step, truncate, and round by
    comparing the exact remainder.  Every other input (NaN, ±∞, huge
    magnitudes, n > 62, any overflow) goes through the general cast,
    which the short path reproduces bit for bit where it applies. *)

type overflow_event = {
  raw : float;  (** value after rounding, before overflow handling *)
  direction : [ `Above | `Below ];
}

type outcome = {
  value : float;  (** the representable result *)
  rounding_error : float;  (** [value_after_rounding - input] *)
  overflow : overflow_event option;
}

(* Integer code range of a format.  Wordlengths up to 64 are well-defined
   for two's complement thanks to int64 wraparound ([1L lsl 63 = min_int],
   so [hi] lands on [max_int] and [lo] on [min_int] exactly); unsigned
   formats are limited to n <= 63 — an unsigned 64-bit code does not fit
   an [int64] (documented limitation). *)
let code_bounds (fmt : Qformat.t) =
  let n = Qformat.n fmt in
  match Qformat.sign fmt with
  | Sign_mode.Tc ->
      let hi = Int64.sub (Int64.shift_left 1L (n - 1)) 1L in
      let lo = Int64.neg (Int64.shift_left 1L (n - 1)) in
      (lo, hi)
  | Sign_mode.Us ->
      let hi = Int64.sub (Int64.shift_left 1L n) 1L in
      (0L, hi)

(* The one place outside the cast that rounds on the grid: the code of
   a value that already lies on it (or of a constant that should). *)
let nearest_code ~step v = Int64.of_float (Float.round (v /. step))

(* Two's-complement / modular wraparound of an out-of-range code into the
   format's code window.  Implemented with native int64 wraparound —
   sign-extension of the low [n] bits for tc (valid for the full-width
   n = 63 and n = 64 cases, where a [2^n] span does not fit a positive
   int64), masking for unsigned.  n = 64 unsigned cannot be represented
   in int64 codes at all; such codes pass through unchanged (the float
   fallback of [exec] covers those magnitudes anyway). *)
let wrap_code fmt code =
  let n = Qformat.n fmt in
  match Qformat.sign fmt with
  | Sign_mode.Tc ->
      if n >= 64 then code
      else Int64.shift_right (Int64.shift_left code (64 - n)) (64 - n)
  | Sign_mode.Us ->
      if n >= 64 then code
      else Int64.logand code (Int64.sub (Int64.shift_left 1L n) 1L)

(* Largest float magnitude we trust to round-trip through int64. *)
let int64_safe = 4.0e18

(** All per-type constants of the cast, computed once ({!compile}): the
    "compiled quantizer" reused by every {!Sim.Signal.assign}. *)
type compiled = {
  cdt : Dtype.t;
  step : float;  (** [2 ^ lsb_pos] *)
  lo : int64;  (** smallest integer code *)
  hi : int64;  (** largest integer code *)
  flo : float;  (** [Int64.to_float lo] (float fallback bound) *)
  fhi : float;
  min_v : float;  (** representable range, [Dtype.range] *)
  max_v : float;
  round_nearest : bool;  (** Round vs Floor *)
  overflow : Overflow_mode.t;
  saturating : bool;
  error_mode : bool;  (** overflow mode is [Error] *)
  int64_path : bool;  (** wordlength fits the exact int64 grid (n <= 62) *)
  inv_step : float;
      (** [1 / step] when that is an exact normal float and [int64_path];
          NaN otherwise, which keeps every cast off the short path *)
  lo_code : int;  (** [lo] as an [int] (meaningful when [int64_path]) *)
  hi_code : int;
  bounds : float array;
      (** [[| min_v; max_v |]]: the representable range as a two-float
          row, what row-fed interval clamps read; never written *)
}

let compile (dt : Dtype.t) =
  let fmt = Dtype.fmt dt in
  let lo, hi = code_bounds fmt in
  let overflow = Dtype.overflow dt in
  let min_v, max_v = Dtype.range dt in
  let step = Qformat.step fmt in
  let int64_path = Qformat.n fmt <= 62 in
  let inv = 1.0 /. step in
  {
    cdt = dt;
    step;
    lo;
    hi;
    flo = Int64.to_float lo;
    fhi = Int64.to_float hi;
    min_v;
    max_v;
    round_nearest = Round_mode.equal (Dtype.round dt) Round_mode.Round;
    overflow;
    saturating = Overflow_mode.is_saturating overflow;
    error_mode = Overflow_mode.equal overflow Overflow_mode.Error;
    int64_path;
    inv_step =
      (if
         int64_path
         && Float.classify_float inv = FP_normal
         && inv *. step = 1.0
       then inv
       else Float.nan);
    lo_code = Int64.to_int lo;
    hi_code = Int64.to_int hi;
    bounds = [| min_v; max_v |];
  }

let dtype_of (c : compiled) = c.cdt

(** Scratch cell for {!exec_into} results beyond the value itself.
    All-float (flat representation), so the hot path stores into it
    without boxing: [flag] is 0 for no overflow, positive for [`Above],
    negative for [`Below]; [raw] and [rerr] are only meaningful right
    after an [exec_into] call. *)
type scratch = {
  mutable flag : float;
  mutable raw : float;  (** pre-overflow value when [flag <> 0] *)
  mutable rerr : float;  (** rounding error of the last cast *)
}

let create_scratch () = { flag = 0.0; raw = 0.0; rerr = 0.0 }

(* The general cast: every input the short path of [exec_into] leaves
   to it.  An exact int64-grid path while the rounded scaled value fits
   it, and a float fallback for astronomically large values (range
   explosion), where saturate clamps and wrap reduces modulo the span,
   which is meaningless at that magnitude but keeps simulation total. *)
let exec_general (c : compiled) v (s : scratch) : float =
  if Float.is_nan v then invalid_arg "Quantize.quantize: nan";
  let v_clamped =
    (* keep the scaled value finite for the float fallback *)
    if v = Float.infinity then Float.max_float
    else if v = Float.neg_infinity then -.Float.max_float
    else v
  in
  let scaled = v_clamped /. c.step in
  let rounded =
    if c.round_nearest then Float.round scaled else Float.floor scaled
  in
  s.rerr <- (rounded *. c.step) -. v_clamped;
  if Float.abs rounded <= int64_safe && c.int64_path then begin
    let code = Int64.of_float rounded in
    let below = Int64.compare code c.lo < 0
    and above = Int64.compare code c.hi > 0 in
    if not (below || above) then begin
      s.flag <- 0.0;
      Int64.to_float code *. c.step
    end
    else begin
      s.flag <- (if above then 1.0 else -1.0);
      s.raw <- rounded *. c.step;
      let code' =
        match c.overflow with
        | Overflow_mode.Saturate -> if above then c.hi else c.lo
        | Overflow_mode.Wrap | Overflow_mode.Error ->
            wrap_code (Dtype.fmt c.cdt) code
      in
      Int64.to_float code' *. c.step
    end
  end
  else begin
    let above = rounded > c.fhi and below = rounded < c.flo in
    if not (above || below) then begin
      s.flag <- 0.0;
      rounded *. c.step
    end
    else begin
      s.flag <- (if above then 1.0 else -1.0);
      s.raw <- rounded *. c.step;
      let code' =
        match c.overflow with
        | Overflow_mode.Saturate -> if above then c.fhi else c.flo
        | Overflow_mode.Wrap | Overflow_mode.Error ->
            let span = c.fhi -. c.flo +. 1.0 in
            let off = Float.rem (rounded -. c.flo) span in
            let off = if off < 0.0 then off +. span else off in
            c.flo +. Float.round off
      in
      code' *. c.step
    end
  end

(** [exec_into c v s] — the per-assignment cast through a compiled
    quantizer, allocation-free: returns the representable value and
    reports the overflow outcome through [s].  NaN input raises
    [Invalid_argument]; infinities saturate (or wrap to an unspecified
    in-range code) and report an overflow event.

    Short path: [v *. inv_step] equals [v /. step] bit for bit (both
    round the same real number once, and the reciprocal of a power of
    two is exact when normal).  Below 2^53 the truncation [i], the
    remainder [scaled - i] and the rounded code are all exact, so the
    remainder compare is [Float.round] (ties away from zero) or
    [Float.floor], and [Float.of_int code] is the rounded scaled value
    itself — up to the sign of a zero, which neither the value (always
    built from an integer code) nor [rerr] (a difference with [v]) can
    observe.  NaN fails the window compare, and so does every scaled
    value when [inv_step] is NaN. *)
let[@inline] exec_into (c : compiled) v (s : scratch) : float =
  let scaled = v *. c.inv_step in
  if Float.abs scaled < 0x1p53 then begin
    let i = Float.to_int scaled in
    let frac = scaled -. Float.of_int i in
    let code =
      if c.round_nearest then
        if frac >= 0.5 then i + 1 else if frac <= -0.5 then i - 1 else i
      else if frac < 0.0 then i - 1
      else i
    in
    if code >= c.lo_code && code <= c.hi_code then begin
      let rounded = Float.of_int code in
      s.rerr <- (rounded *. c.step) -. v;
      s.flag <- 0.0;
      rounded *. c.step
    end
    else exec_general c v s
  end
  else exec_general c v s

(** [exec_lanes qs a ~src ~dst ~ovf s] — {!exec_into} over a row of
    lanes: lane [l] casts [a.(src + l)] through [qs.(l)] into
    [a.(dst + l)], for [l] in [0, Array.length qs).  Each overflow event
    bumps [ovf.(l)]; returns the number of events.  The cast is inlined,
    so the row costs one call and allocates nothing on the short
    path. *)
let exec_lanes (qs : compiled array) (a : float array) ~src ~dst
    ~(ovf : int array) (s : scratch) =
  let b = Array.length qs in
  if
    src < 0 || dst < 0
    || src + b > Array.length a
    || dst + b > Array.length a
    || Array.length ovf < b
  then invalid_arg "Quantize.exec_lanes: row out of bounds";
  let events = ref 0 in
  for l = 0 to b - 1 do
    (* stored straight from the cast, so its result is never boxed *)
    Array.unsafe_set a (dst + l)
      (exec_into (Array.unsafe_get qs l) (Array.unsafe_get a (src + l)) s);
    if s.flag <> 0.0 then begin
      Array.unsafe_set ovf l (Array.unsafe_get ovf l + 1);
      incr events
    end
  done;
  !events

(** [exec_at c a i s] — {!exec_into} of [a.(i)], the result stored back
    into [a.(i)]: the value never crosses the call boxed. *)
let exec_at (c : compiled) (a : float array) i (s : scratch) =
  a.(i) <- exec_into c a.(i) s

(** [exec c v] — boxed-outcome variant of {!exec_into} (one-shot
    callers and places that want the full record).  Each call takes its
    own scratch: one-shot casts run on several domains at once (sweep
    workers, the verifier), so a shared cell could hand one call
    another's overflow. *)
let exec (c : compiled) v : outcome =
  let s = create_scratch () in
  let value = exec_into c v s in
  {
    value;
    rounding_error = s.rerr;
    overflow =
      (if s.flag = 0.0 then None
       else
         Some
           {
             raw = s.raw;
             direction = (if s.flag > 0.0 then `Above else `Below);
           });
  }

(* Compiled quantizers memoized per dtype, so one-shot callers
   ({!quantize}, {!cast}, the SFG interpreter) share the precomputation
   too.  Dtypes are small immutable records: structural hashing is exact.
   The table is bounded defensively — wordlength searches can synthesize
   thousands of throwaway types.  Guarded by a mutex: sweep worker
   domains retype signals (and compile graphs) concurrently, and an
   unsynchronized Hashtbl resize corrupts under parallel access. *)
let memo : (Dtype.t, compiled) Hashtbl.t = Hashtbl.create 64
let memo_lock = Mutex.create ()

(* A hit allocates nothing (no closure, no option): {!Sim.Ops.cast}
   looks its quantizer up here on every call. *)
let of_dtype dt =
  Mutex.lock memo_lock;
  match Hashtbl.find memo dt with
  | c ->
      Mutex.unlock memo_lock;
      c
  | exception Not_found -> (
      match compile dt with
      | c ->
          if Hashtbl.length memo > 4096 then Hashtbl.reset memo;
          Hashtbl.add memo dt c;
          Mutex.unlock memo_lock;
          c
      | exception e ->
          Mutex.unlock memo_lock;
          raise e)

(** [quantize dtype v] casts [v] through [dtype]'s quantization scheme.
    NaN input raises [Invalid_argument]; infinities saturate (or wrap to
    an unspecified in-range code) and report an overflow event. *)
let quantize (dt : Dtype.t) v : outcome = exec (of_dtype dt) v

(** [cast dtype v] — just the representable value (the paper's [cast]
    operator for intermediate results). *)
let cast dt v = (quantize dt v).value

(** [error dt v] — total quantization error [cast dt v -. v]. *)
let error dt v = cast dt v -. v

(** Theoretical error-model parameters for a type (used by the analytical
    noise propagation and by tests): the quantization step [q], the error
    variance [q^2/12] of the uniform model, and the mean bias of the
    rounding mode. *)
let noise_model dt =
  let q = Dtype.step dt in
  let variance = q *. q /. 12.0 in
  let mean = Round_mode.expected_bias (Dtype.round dt) ~step:q in
  (q, mean, variance)
