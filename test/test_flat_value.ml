(* Properties of the flat simulation value: every Sim.Ops operator
   equals the boxed Interval function on Value.iv of its operands, the
   boxed functions equal the endpoint formulas they had as separate
   boxed code (kept here as an oracle), the row encoding of Empty
   round-trips, and a signal read propagates the interval of the
   former read_interval formula (also kept as an oracle).  Floats are
   compared by bit pattern, so signed zeros and NaN payload signs
   count. *)

open Fixrefine
open Sim.Ops

let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)

(* --- oracle: the boxed endpoint formulas, on a local representation --- *)

module Oracle = struct
  type r = E | R of float * float

  let of_iv = function
    | Interval.Empty -> E
    | Interval.Range { lo; hi } -> R (lo, hi)

  (* [Interval.of_point]: NaN raises *)
  let point v =
    if Float.is_nan v then invalid_arg "Interval.make: nan" else R (v, v)

  let join a b =
    match (a, b) with
    | E, x | x, E -> x
    | R (alo, ahi), R (blo, bhi) ->
        if blo >= alo && bhi <= ahi then a
        else if alo >= blo && ahi <= bhi then b
        else R (Float.min alo blo, Float.max ahi bhi)

  let add a b =
    match (a, b) with
    | E, _ | _, E -> E
    | R (alo, ahi), R (blo, bhi) -> R (alo +. blo, ahi +. bhi)

  let neg = function E -> E | R (lo, hi) -> R (-.hi, -.lo)
  let sub a b = add a (neg b)

  let endpoint_mul x y =
    let p = x *. y in
    if Float.is_nan p then 0.0 else p

  let mul a b =
    match (a, b) with
    | E, _ | _, E -> E
    | R (alo, ahi), R (blo, bhi) ->
        let p1 = endpoint_mul alo blo
        and p2 = endpoint_mul alo bhi
        and p3 = endpoint_mul ahi blo
        and p4 = endpoint_mul ahi bhi in
        R
          ( Float.min (Float.min p1 p2) (Float.min p3 p4),
            Float.max (Float.max p1 p2) (Float.max p3 p4) )

  let div a b =
    match (a, b) with
    | E, _ | _, E -> E
    | R _, R (blo, bhi) when blo <= 0.0 && bhi >= 0.0 ->
        R (Float.neg_infinity, Float.infinity)
    | R (alo, ahi), R (blo, bhi) ->
        let q1 = alo /. blo and q2 = alo /. bhi and q3 = ahi /. blo
        and q4 = ahi /. bhi in
        R
          ( Float.min (Float.min q1 q2) (Float.min q3 q4),
            Float.max (Float.max q1 q2) (Float.max q3 q4) )

  let abs = function
    | E -> E
    | R (lo, hi) as r ->
        if lo >= 0.0 then r
        else if hi <= 0.0 then R (-.hi, -.lo)
        else R (0.0, Float.max (-.lo) hi)

  let min_ a b =
    match (a, b) with
    | E, _ | _, E -> E
    | R (alo, ahi), R (blo, bhi) -> R (Float.min alo blo, Float.min ahi bhi)

  let max_ a b =
    match (a, b) with
    | E, _ | _, E -> E
    | R (alo, ahi), R (blo, bhi) -> R (Float.max alo blo, Float.max ahi bhi)

  let shift_left i k =
    let s = Float.ldexp 1.0 k in
    match i with
    | E -> E
    | R (lo, hi) ->
        let a = endpoint_mul s lo and b = endpoint_mul s hi in
        R (Float.min a b, Float.max a b)

  let clamp ~into v =
    match (v, into) with
    | E, _ | _, E -> E
    | R (rlo, rhi), R (llo, lhi) ->
        if rlo >= llo && rhi <= lhi then v
        else
          R
            ( Float.min (Float.max rlo llo) lhi,
              Float.max (Float.min rhi lhi) llo )

  let observe t v =
    if Float.is_nan v then t
    else
      match t with
      | E -> R (v, v)
      | R (lo, hi) ->
          if lo <= v && v <= hi then t
          else R (Float.min lo v, Float.max hi v)

  (* the interval a read propagated, from the signal's public state *)
  let read_interval (s : Sim.Signal.t) =
    let fx = Sim.Signal.peek_fx s and fl = Sim.Signal.peek_fl s in
    let type_range dt =
      let lo, hi = Fixpt.Dtype.range dt in
      R (lo, hi)
    in
    let base =
      match Sim.Signal.explicit_range s with
      | Some r -> of_iv r
      | None -> (
          let accumulated =
            match Sim.Signal.prop_range s with
            | Some (lo, hi) -> R (lo, hi)
            | None -> (
                match Sim.Signal.dtype s with
                | Some dt -> type_range dt
                | None -> point fl)
          in
          match Sim.Signal.kind s with
          | Sim.Env.Registered -> observe (observe accumulated fx) fl
          | Sim.Env.Comb -> accumulated)
    in
    match Sim.Signal.dtype s with
    | Some dt when Fixpt.Overflow_mode.is_saturating (Fixpt.Dtype.overflow dt)
      ->
        clamp ~into:(type_range dt) base
    | _ -> base
end

let same_r (x : Interval.t) (y : Oracle.r) =
  match (x, y) with
  | Interval.Empty, Oracle.E -> true
  | Interval.Range { lo; hi }, Oracle.R (lo', hi') ->
      same_float lo lo' && same_float hi hi'
  | _ -> false

let same_iv (x : Interval.t) (y : Interval.t) = same_r x (Oracle.of_iv y)

let show_iv = function
  | Interval.Empty -> "[]"
  | Interval.Range { lo; hi } -> Printf.sprintf "[%h, %h]" lo hi

(* --- generators ---------------------------------------------------------- *)

let specials =
  [
    0.0; -0.0; 1.0; -1.0; 0.5; -2.5; 3.0; 1e300; -1e300; 5e-324; -5e-324;
    Float.infinity; Float.neg_infinity;
  ]

let gen_float =
  QCheck2.Gen.(
    frequency
      [ (3, oneofl specials); (2, float_range (-8.0) 8.0); (1, float) ])

let point_inf = [ Interval.of_point Float.infinity; Interval.of_point Float.neg_infinity ]

(* Empty, ordinary and infinite ranges, points, ranges straddling zero,
   and the NaN-endpoint ranges sums of point infinities give *)
let gen_iv =
  QCheck2.Gen.(
    frequency
      [
        (1, pure Interval.empty);
        ( 6,
          map2
            (fun a b ->
              if Float.is_nan a || Float.is_nan b then Interval.of_point 0.0
              else Interval.make (Float.min a b) (Float.max a b))
            gen_float gen_float );
        (2, map Interval.of_point gen_float);
        (1, map (fun w -> Interval.make (-.Float.abs w) (Float.abs w)) gen_float);
        ( 1,
          map2
            (fun a b -> Interval.add a b)
            (oneofl point_inf)
            (oneofl
               (point_inf
               @ [ Interval.make Float.neg_infinity 0.0; Interval.make 0.0 Float.infinity ]))
        );
      ])

let gen_value =
  QCheck2.Gen.(
    map3
      (fun fx fl iv ->
        let base =
          if Float.is_nan fx then cst Float.infinity -: cst Float.infinity
          else cst fx
        in
        Sim.Value.with_range (Sim.Value.with_fl base fl) iv)
      gen_float gen_float gen_iv)

let print_value v = Format.asprintf "%a" Sim.Value.pp v ^ " " ^ show_iv (Sim.Value.iv v)

(* --- flat operators = boxed Interval on Value.iv ------------------------- *)

let same_value ~fx ~fl ~iv r =
  same_float (Sim.Value.fx r) fx
  && same_float (Sim.Value.fl r) fl
  && same_iv (Sim.Value.iv r) iv

let dt_wrap = Fixpt.Dtype.make "w" ~n:6 ~f:3 ()

let dt_sat =
  Fixpt.Dtype.make "s" ~n:6 ~f:3 ~overflow:Fixpt.Overflow_mode.Saturate ()

let prop_ops_match_boxed =
  QCheck2.Test.make ~name:"flat operators = boxed Interval on Value.iv"
    ~count:3000
    ~print:(fun (a, b, k, c) ->
      Printf.sprintf "a=%s b=%s k=%d c=%b" (print_value a) (print_value b) k c)
    QCheck2.Gen.(quad gen_value gen_value (int_range (-4) 4) bool)
    (fun (a, b, k, c) ->
      let fx = Sim.Value.fx and fl = Sim.Value.fl and iv = Sim.Value.iv in
      let bin op fop iop =
        same_value (op a b) ~fx:(fop (fx a) (fx b)) ~fl:(fop (fl a) (fl b))
          ~iv:(iop (iv a) (iv b))
      in
      let un op fop iop =
        same_value (op a) ~fx:(fop (fx a)) ~fl:(fop (fl a)) ~iv:(iop (iv a))
      in
      let s = Float.ldexp 1.0 k in
      let cast_ok dt =
        (* the cast rejects a NaN fixed value *)
        Float.is_nan (fx a)
        ||
        let sat = Fixpt.Overflow_mode.is_saturating (Fixpt.Dtype.overflow dt) in
        let lo, hi = Fixpt.Dtype.range dt in
        same_value (cast dt a)
          ~fx:(Fixpt.Quantize.cast dt (fx a))
          ~fl:(fl a)
          ~iv:(if sat then Interval.clamp ~into:(Interval.make lo hi) (iv a) else iv a)
      in
      let chosen = if c then a else b in
      let d = if fx a >= 0.0 then 1.0 else -1.0 in
      bin ( +: ) ( +. ) Interval.add
      && bin ( -: ) ( -. ) Interval.sub
      && bin ( *: ) ( *. ) Interval.mul
      && bin ( /: ) ( /. ) Interval.div
      && bin min_ Float.min Interval.min_
      && bin max_ Float.max Interval.max_
      && un ( ~-: ) (fun x -> -.x) Interval.neg
      && un abs Float.abs Interval.abs
      && un (fun v -> shift_left v k) (fun x -> x *. s) (fun i -> Interval.shift_left i k)
      && same_value (select c a b) ~fx:(fx chosen) ~fl:(fl chosen)
           ~iv:(Interval.join (iv a) (iv b))
      && same_value (sign a) ~fx:d ~fl:d ~iv:(Interval.make (-1.0) 1.0)
      && cast_ok dt_wrap && cast_ok dt_sat)

(* --- boxed Interval = the endpoint formulas ------------------------------ *)

let prop_boxed_match_oracle =
  QCheck2.Test.make ~name:"boxed Interval = endpoint formulas" ~count:3000
    ~print:(fun (a, b, v, k) ->
      Printf.sprintf "a=%s b=%s v=%h k=%d" (show_iv a) (show_iv b) v k)
    QCheck2.Gen.(quad gen_iv gen_iv gen_float (int_range (-4) 4))
    (fun (a, b, v, k) ->
      let ra = Oracle.of_iv a and rb = Oracle.of_iv b in
      same_r (Interval.add a b) (Oracle.add ra rb)
      && same_r (Interval.sub a b) (Oracle.sub ra rb)
      && same_r (Interval.mul a b) (Oracle.mul ra rb)
      && same_r (Interval.div a b) (Oracle.div ra rb)
      && same_r (Interval.min_ a b) (Oracle.min_ ra rb)
      && same_r (Interval.max_ a b) (Oracle.max_ ra rb)
      && same_r (Interval.join a b) (Oracle.join ra rb)
      && same_r (Interval.neg a) (Oracle.neg ra)
      && same_r (Interval.abs a) (Oracle.abs ra)
      && same_r (Interval.shift_left a k) (Oracle.shift_left ra k)
      && same_r (Interval.clamp ~into:b a) (Oracle.clamp ~into:rb ra)
      && same_r (Interval.observe a v) (Oracle.observe ra v))

(* --- the Empty encoding round-trips -------------------------------------- *)

let prop_empty_encoding =
  QCheck2.Test.make ~name:"row encoding round-trips" ~count:1000
    ~print:(fun (i, v) -> show_iv i ^ " " ^ print_value v)
    QCheck2.Gen.(pair gen_iv gen_value)
    (fun (i, v) ->
      let row = [| 0.0; 0.0; 0.0 |] in
      Interval.Row.put row 1 i;
      let encoded_empty = row.(1) > row.(2) in
      same_iv (Interval.Row.get row 1) i
      && Bool.equal encoded_empty (Interval.is_empty i)
      && Bool.equal (Interval.Row.is_empty row 1) (Interval.is_empty i)
      && same_iv (Sim.Value.iv (Sim.Value.with_range v i)) i)

let test_empty_canonical () =
  let row = [| 0.0; 0.0 |] in
  Interval.Row.set_empty row 0;
  Alcotest.(check bool) "canonical +inf, -inf" true
    (row.(0) = Float.infinity && row.(1) = Float.neg_infinity);
  Alcotest.(check bool) "reads back Empty" true
    (Interval.is_empty (Interval.Row.get row 0));
  Alcotest.check_raises "NaN constant" (Invalid_argument "Interval.make: nan")
    (fun () -> ignore (cst Float.nan))

(* --- Signal.value's interval = the read_interval formula ---------------- *)

let prop_read_matches_oracle =
  QCheck2.Test.make
    ~name:"signal reads = read_interval formula (comb, reg, annotated, saturating)"
    ~count:300
    ~print:(fun vs -> String.concat "; " (List.map print_value vs))
    QCheck2.Gen.(list_size (int_range 0 6) gen_value)
    (fun vs ->
      let env = Sim.Env.create () in
      let mk name ?dtype reg =
        if reg then Sim.Signal.create_reg env ?dtype name
        else Sim.Signal.create env ?dtype name
      in
      let signals =
        [
          mk "comb" false;
          mk "reg" true;
          mk "comb_w" ~dtype:dt_wrap false;
          mk "comb_s" ~dtype:dt_sat false;
          mk "reg_s" ~dtype:dt_sat true;
          mk "reg_w" ~dtype:dt_wrap true;
          mk "annot" false;
          mk "annot_s" ~dtype:dt_sat true;
        ]
      in
      Sim.Signal.range (Sim.Env.find_exn env "annot") (-0.5) 0.75;
      Sim.Signal.range (Sim.Env.find_exn env "annot_s") (-100.0) 2.0;
      let ok = ref true in
      let check_all () =
        List.iter
          (fun s ->
            let expect =
              try Ok (Oracle.read_interval s) with Invalid_argument m -> Error m
            in
            match (Sim.Signal.value s, expect) with
            | v, Ok r -> if not (same_r (Sim.Value.iv v) r) then ok := false
            | _, Error _ -> ok := false
            | exception Invalid_argument m ->
                if expect <> Error m then ok := false)
          signals
      in
      check_all ();
      List.iter
        (fun v ->
          (* the cast rejects NaN; infinities saturate or wrap *)
          if not (Float.is_nan (Sim.Value.fx v)) then begin
            List.iter
              (fun s ->
                let prop s = Option.fold ~none:Oracle.E ~some:(fun (lo, hi) -> Oracle.R (lo, hi)) (Sim.Signal.prop_range s) in
                let before = prop s in
                let incoming =
                  match Sim.Signal.dtype s with
                  | Some dt
                    when Fixpt.Overflow_mode.is_saturating (Fixpt.Dtype.overflow dt) ->
                      let lo, hi = Fixpt.Dtype.range dt in
                      Oracle.clamp ~into:(Oracle.R (lo, hi)) (Oracle.of_iv (Sim.Value.iv v))
                  | _ -> Oracle.of_iv (Sim.Value.iv v)
                in
                Sim.Signal.assign s v;
                let expect = Oracle.join before incoming in
                let after = prop s in
                let same =
                  match (after, expect) with
                  | Oracle.E, Oracle.E -> true
                  | Oracle.R (a, b), Oracle.R (c, d) -> same_float a c && same_float b d
                  | _ -> false
                in
                if not same then ok := false)
              signals;
            check_all ();
            Sim.Env.tick env;
            check_all ()
          end)
        vs;
      !ok)

let suite =
  ( "flat-value",
    [
      Test_support.Qseed.to_alcotest prop_ops_match_boxed;
      Test_support.Qseed.to_alcotest prop_boxed_match_oracle;
      Test_support.Qseed.to_alcotest prop_empty_encoding;
      Alcotest.test_case "empty encoding canonical" `Quick test_empty_canonical;
      Test_support.Qseed.to_alcotest prop_read_matches_oracle;
    ] )
