(** Closed-interval arithmetic over floats.

    This is the numeric substrate of both range-propagation techniques in
    the paper (§4.1): the *quasi-analytical* method (ranges flow through
    the overloaded operators during simulation) and the *analytical*
    method (the same propagation applied to a signal flow graph).

    Intervals are closed: [{lo; hi}] represents [[lo, hi]], [lo <= hi].
    Infinite endpoints are allowed — they are precisely what "MSB
    explosion" on a feedback loop looks like, and {!is_exploded} is how
    the refinement flow detects it.  The empty interval is represented by
    a dedicated constructor so that monitoring can start from "nothing
    observed yet" and [join] observations in.

    The hot paths (the simulator's operators and monitors) keep
    intervals flat instead: two consecutive floats [lo; hi] of a float
    array, read and written by the {!Row} kernels with no allocation.
    A row encodes {!Empty} as [lo > hi] (canonically [+∞, −∞]).  No
    operation yields a {!Range} with [lo > hi] unless an endpoint is
    NaN, and NaN compares false, so the encoding is exact.  Every
    operation's endpoint rules live once, in {!Row}; the boxed
    functions below convert at the edge and run the same kernel. *)

type t =
  | Empty
  | Range of { lo : float; hi : float }

let empty = Empty

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then invalid_arg "Interval.make: nan";
  if lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: lo (%g) > hi (%g)" lo hi);
  Range { lo; hi }

let of_point v = make v v
let entire = Range { lo = Float.neg_infinity; hi = Float.infinity }

let is_empty = function Empty -> true | Range _ -> false

let lo = function Empty -> invalid_arg "Interval.lo: empty" | Range r -> r.lo
let hi = function Empty -> invalid_arg "Interval.hi: empty" | Range r -> r.hi

let bounds = function
  | Empty -> None
  | Range r -> Some (r.lo, r.hi)

let equal a b =
  match (a, b) with
  | Empty, Empty -> true
  | Range a, Range b -> a.lo = b.lo && a.hi = b.hi
  | (Empty | Range _), _ -> false

let mem v = function
  | Empty -> false
  | Range r -> r.lo <= v && v <= r.hi

let subset a b =
  match (a, b) with
  | Empty, _ -> true
  | Range _, Empty -> false
  | Range a, Range b -> b.lo <= a.lo && a.hi <= b.hi

let width = function
  | Empty -> 0.0
  | Range r -> r.hi -. r.lo

(** Largest absolute value contained in the interval. *)
let mag = function
  | Empty -> 0.0
  | Range r -> Float.max (Float.abs r.lo) (Float.abs r.hi)

(* --- endpoint kernels on float rows ---------------------------------------- *)

module Row = struct
  let[@inline] lo (a : float array) i = a.(i)
  let[@inline] hi (a : float array) i = a.(i + 1)

  (* NaN compares false: a row with a NaN endpoint is a (NaN) range,
     exactly as the boxed [Range] it came from *)
  let[@inline] empty_at a i = lo a i > hi a i

  let[@inline] set (d : float array) i lo hi =
    d.(i) <- lo;
    d.(i + 1) <- hi

  let[@inline] copy a i d j = set d j (lo a i) (hi a i)
  let set_empty d i = set d i Float.infinity Float.neg_infinity
  let is_empty a i = empty_at a i

  let put d i = function
    | Empty -> set_empty d i
    | Range r -> set d i r.lo r.hi

  let get a i = if empty_at a i then Empty else Range { lo = lo a i; hi = hi a i }

  (* [Float.min]/[Float.max] exactly (NaN wins, -0 below +0), the
     ordered and equal non-zero cases decided by compares: the
     stdlib's sign-bit tests run only on zeros and NaN *)
  let[@inline] fmin (x : float) y =
    if x < y then x
    else if y < x then y
    else if x = y && x <> 0.0 then x
    else Float.min x y

  let[@inline] fmax (x : float) y =
    if x < y then y
    else if y < x then x
    else if x = y && x <> 0.0 then x
    else Float.max x y

  (* inf * 0 = nan under IEEE; for interval endpoints the correct
     convention is 0 (the zero endpoint wins). *)
  let[@inline] endpoint_mul x y =
    let p = x *. y in
    if Float.is_nan p then 0.0 else p

  let[@inline] add a ia b ib d id =
    if empty_at a ia || empty_at b ib then set_empty d id
    else set d id (lo a ia +. lo b ib) (hi a ia +. hi b ib)

  let[@inline] neg a ia d id =
    if empty_at a ia then set_empty d id else set d id (-.hi a ia) (-.lo a ia)

  (* [a + (−b)], endpoint for endpoint: a NaN endpoint keeps the sign
     bit the negation gives it *)
  let[@inline] sub a ia b ib d id =
    if empty_at a ia || empty_at b ib then set_empty d id
    else set d id (lo a ia +. -.hi b ib) (hi a ia +. -.lo b ib)

  let[@inline] mul a ia b ib d id =
    if empty_at a ia || empty_at b ib then set_empty d id
    else begin
      let alo = lo a ia and ahi = hi a ia and blo = lo b ib and bhi = hi b ib in
      let p1 = endpoint_mul alo blo
      and p2 = endpoint_mul alo bhi
      and p3 = endpoint_mul ahi blo
      and p4 = endpoint_mul ahi bhi in
      set d id
        (fmin (fmin p1 p2) (fmin p3 p4))
        (fmax (fmax p1 p2) (fmax p3 p4))
    end

  (* a divisor straddling zero gives [-∞, +∞]: the sound answer, and
     exactly the explosion signal the MSB analysis wants to see *)
  let[@inline] div a ia b ib d id =
    if empty_at a ia || empty_at b ib then set_empty d id
    else begin
      let alo = lo a ia and ahi = hi a ia and blo = lo b ib and bhi = hi b ib in
      if blo <= 0.0 && bhi >= 0.0 then
        set d id Float.neg_infinity Float.infinity
      else begin
        let q1 = alo /. blo and q2 = alo /. bhi and q3 = ahi /. blo
        and q4 = ahi /. bhi in
        set d id
          (fmin (fmin q1 q2) (fmin q3 q4))
          (fmax (fmax q1 q2) (fmax q3 q4))
      end
    end

  let[@inline] abs a ia d id =
    if empty_at a ia then set_empty d id
    else begin
      let l = lo a ia and h = hi a ia in
      if l >= 0.0 then set d id l h
      else if h <= 0.0 then set d id (-.h) (-.l)
      else set d id 0.0 (fmax (-.l) h)
    end

  let[@inline] min_ a ia b ib d id =
    if empty_at a ia || empty_at b ib then set_empty d id
    else set d id (fmin (lo a ia) (lo b ib)) (fmin (hi a ia) (hi b ib))

  let[@inline] max_ a ia b ib d id =
    if empty_at a ia || empty_at b ib then set_empty d id
    else set d id (fmax (lo a ia) (lo b ib)) (fmax (hi a ia) (hi b ib))

  let[@inline] scale k a ia d id =
    if empty_at a ia then set_empty d id
    else begin
      let x = endpoint_mul k (lo a ia) and y = endpoint_mul k (hi a ia) in
      set d id (fmin x y) (fmax x y)
    end

  (* [ldexp] is the exact (and cheap) power of two *)
  let shift_left a ia k d id = scale (Float.ldexp 1.0 k) a ia d id

  (* One side already covering the other keeps that side's endpoints
     bit for bit (a [+0] bound is not replaced by a covered [-0]). *)
  let[@inline] join a ia b ib d id =
    if empty_at a ia then copy b ib d id
    else if empty_at b ib then copy a ia d id
    else begin
      let alo = lo a ia and ahi = hi a ia and blo = lo b ib and bhi = hi b ib in
      if blo >= alo && bhi <= ahi then set d id alo ahi
      else if alo >= blo && ahi <= bhi then set d id blo bhi
      else set d id (fmin alo blo) (fmax ahi bhi)
    end

  let[@inline] clamp l il a ia d id =
    if empty_at a ia || empty_at l il then set_empty d id
    else begin
      let rlo = lo a ia and rhi = hi a ia and llo = lo l il and lhi = hi l il in
      if rlo >= llo && rhi <= lhi then set d id rlo rhi
      else
        set d id
          (fmin (fmax rlo llo) lhi)
          (fmax (fmin rhi lhi) llo)
    end

  let[@inline] observe a ia (x : float array) ix d id =
    let v = x.(ix) in
    if Float.is_nan v then copy a ia d id
    else if empty_at a ia then set d id v v
    else begin
      let l = lo a ia and h = hi a ia in
      if l <= v && v <= h then set d id l h
      else set d id (fmin l v) (fmax h v)
    end
end

(* --- the boxed API, on the same kernels --------------------------------- *)

let[@inline] lift1 k x =
  let s = [| 0.0; 0.0 |] in
  Row.put s 0 x;
  k s 0 s 0;
  Row.get s 0

let[@inline] lift2 k x y =
  let s = [| 0.0; 0.0; 0.0; 0.0 |] in
  Row.put s 0 x;
  Row.put s 2 y;
  k s 0 s 2 s 0;
  Row.get s 0

(** Union hull — used by the statistic and propagation monitors to
    accumulate observed/derived ranges over assignments
    ([c.min = MIN(c.min, a.min)] in the paper's table). *)
let join a b = lift2 Row.join a b

let meet a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Range a, Range b ->
      let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
      if lo > hi then Empty else Range { lo; hi }

let add a b = lift2 Row.add a b
let neg a = lift1 Row.neg a
let sub a b = lift2 Row.sub a b
let mul a b = lift2 Row.mul a b

(** Interval division.  If the divisor straddles zero the quotient is
    unbounded: we return {!entire}. *)
let div a b = lift2 Row.div a b

let abs a = lift1 Row.abs a
let min_ a b = lift2 Row.min_ a b
let max_ a b = lift2 Row.max_ a b

(** Multiplication by a scalar. *)
let scale k x =
  let s = [| 0.0; 0.0 |] in
  Row.put s 0 x;
  Row.scale k s 0 s 0;
  Row.get s 0

(** [shift_left i k] multiplies by [2^k] ([k] may be negative). *)
let shift_left i k = scale (Float.ldexp 1.0 k) i

(** Clamp into another interval — the effect of a saturating assignment
    on a propagated range: saturation is what breaks feedback explosions
    (§4.1). *)
let clamp ~into:limits v = lift2 Row.clamp limits v

(** Widening: if [b] escapes [a] on a side, that side jumps to infinity.
    Standard abstract-interpretation device used by the analytical
    fixpoint ({!Sfg.Range_analysis}) to force termination on feedback
    loops — escaping to infinity is then reported as MSB explosion. *)
let widen a b =
  match (a, b) with
  | Empty, x -> x
  | x, Empty -> x
  | Range a, Range b ->
      Range
        {
          lo = (if b.lo < a.lo then Float.neg_infinity else a.lo);
          hi = (if b.hi > a.hi then Float.infinity else a.hi);
        }

(** Capped widening: like {!widen}, but an escaping side lands on the
    corresponding bound of [within] instead of infinity.  The degraded
    fallback of the analytical fixpoint: when a feedback range keeps
    growing, cap it at the declared ([range()]) bound and report the
    node as degraded rather than propagating an exploded interval
    through the rest of the graph. *)
let widen_within ~within a b =
  match within with
  | Empty -> widen a b
  | Range w -> (
      match (a, b) with
      | Empty, x -> x
      | x, Empty -> x
      | Range a, Range b ->
          Range
            {
              lo = (if b.lo < a.lo then Float.min a.lo w.lo else a.lo);
              hi = (if b.hi > a.hi then Float.max a.hi w.hi else a.hi);
            })

(** An interval with an infinite endpoint, or wider than [threshold]
    (default [2^64]), counts as exploded for MSB purposes. *)
let is_exploded ?(threshold = 1.8446744073709552e19) = function
  | Empty -> false
  | Range r ->
      Float.abs r.lo = Float.infinity
      || Float.abs r.hi = Float.infinity
      || Float.max (Float.abs r.lo) (Float.abs r.hi) > threshold

(** Grow by one observed value (statistic-based monitoring step). *)
let observe t v =
  let s = [| 0.0; 0.0; v |] in
  Row.put s 0 t;
  Row.observe s 0 s 2 s 0;
  Row.get s 0

let to_string = function
  | Empty -> "[]"
  | Range r -> Printf.sprintf "[%g, %g]" r.lo r.hi

let pp ppf t = Format.pp_print_string ppf (to_string t)
