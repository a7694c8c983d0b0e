(* Differential oracle: Fixpt.Quantize vs the executable spec, over
   seeded random cases.  Comparison is bit-exact (hex-float renderings
   are used in mismatch reports so a disagreement is unambiguous). *)

type case = { dtype : Fixpt.Dtype.t; value : float }
type mismatch = { case : case; field : string; spec : string; impl : string }

type report = {
  seed : int;
  per_combo : int;
  total_cases : int;
  mismatches : mismatch list;
  mismatch_count : int;
}

let max_reported = 20
let fixed_default_seed = 421731

let default_seed () =
  match Sys.getenv_opt "FXREFINE_QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some i -> i
    | None -> fixed_default_seed)
  | None -> fixed_default_seed

let combos =
  List.concat_map
    (fun sign ->
      List.concat_map
        (fun overflow ->
          List.map
            (fun round -> (sign, overflow, round))
            [ Fixpt.Round_mode.Round; Fixpt.Round_mode.Floor ])
        [
          Fixpt.Overflow_mode.Wrap;
          Fixpt.Overflow_mode.Saturate;
          Fixpt.Overflow_mode.Error;
        ])
    [ Fixpt.Sign_mode.Tc; Fixpt.Sign_mode.Us ]

(* The wordlengths the hot path special-cases: single bit, the last
   exact-int64-grid width, and the two float-fallback-only widths. *)
let boundary_n = [| 1; 62; 63; 64 |]

let gen_n rng (sign : Fixpt.Sign_mode.t) i =
  let n =
    if i mod 2 = 0 then boundary_n.(i / 2 mod Array.length boundary_n)
    else 1 + Stats.Rng.int rng 64
  in
  (* unsigned 64-bit codes do not exist in int64: documented limit *)
  match sign with Fixpt.Sign_mode.Us -> min n 63 | Fixpt.Sign_mode.Tc -> n

(* Fractional widths whose step [2^-f] has a reciprocal that is not a
   normal float (f = 1024: infinite; f = -1023: subnormal; f = 1074: the
   smallest subnormal step), next to the last widths where it is
   normal: the quantizer's short path must step aside exactly there. *)
let boundary_f = [| 1022; 1023; 1024; 1074; -1021; -1022; -1023 |]

let gen_f rng n i =
  if i mod 5 = 4 then boundary_f.(Stats.Rng.int rng (Array.length boundary_f))
  else -16 + Stats.Rng.int rng (n + 32)

let gen_value rng (dt : Fixpt.Dtype.t) i =
  let step = Fixpt.Dtype.step dt in
  let min_v, max_v = Fixpt.Dtype.range dt in
  match i mod 8 with
  | 0 ->
      (* plain in/near-range magnitudes; a span that overflows (f near
         -1023) draws from the finite half-range instead of making NaN *)
      let lo = (4.0 *. min_v) -. step and hi = (4.0 *. max_v) +. step in
      if Float.is_finite (hi -. lo) then Stats.Rng.uniform rng ~lo ~hi
      else
        Stats.Rng.uniform rng
          ~lo:(-0.5 *. Float.max_float)
          ~hi:(0.5 *. Float.max_float)
  | 1 ->
      (* exact grid points *)
      let code = Stats.Rng.int rng 2_000_001 - 1_000_000 in
      Float.of_int code *. step
  | 2 ->
      (* half-step ties (the Round/Floor disagreement points) *)
      let code = Stats.Rng.int rng 2_000_001 - 1_000_000 in
      (Float.of_int code +. 0.5) *. step
  | 3 ->
      (* range-explosion magnitudes: float fallback *)
      let mag = 10.0 ** Float.of_int (19 + Stats.Rng.int rng 14) in
      if Stats.Rng.bool rng then mag else -.mag
  | 4 ->
      (* straddle the int64-exact window boundary *)
      let r = Stats.Rng.uniform rng ~lo:0.5 ~hi:1.5 in
      let s = if Stats.Rng.bool rng then 1.0 else -1.0 in
      s *. r *. Quantize_spec.int64_exact *. step
  | 5 ->
      (* format boundaries *)
      [| min_v; max_v; min_v -. step; max_v +. step;
         min_v +. (step /. 2.0); max_v -. (step /. 2.0) |].(Stats.Rng.int rng 6)
  | 6 ->
      [| 0.0; -0.0; step /. 2.0; -.(step /. 2.0); 1.0; -1.0;
         Float.infinity; Float.neg_infinity |].(Stats.Rng.int rng 8)
  | _ ->
      (* the short path's decision points: the edges of its 2^53 scaled
         window, and ties just outside and inside the code window *)
      let lo, hi = Fixpt.Quantize.code_bounds (Fixpt.Dtype.fmt dt) in
      let lo = Int64.to_float lo and hi = Int64.to_float hi in
      let scaled =
        [|
          0x1p52 -. 0.5; 0x1p52 +. 0.5; Float.pred 0x1p52; Float.succ 0x1p52;
          0x1p53 -. 1.0; 0x1p53 +. 1.0; Float.pred 0x1p53; Float.succ 0x1p53;
          lo -. 0.5; lo +. 0.5; hi -. 0.5; hi +. 0.5; -0.5; -1.5;
        |].(Stats.Rng.int rng 14)
      in
      let v = scaled *. step in
      if Stats.Rng.bool rng then v else -.v

let hex = Printf.sprintf "%h"

let fields_of (o : Fixpt.Quantize.outcome) =
  [
    ("value", hex o.Fixpt.Quantize.value);
    ("rounding_error", hex o.Fixpt.Quantize.rounding_error);
    ( "overflow",
      match o.Fixpt.Quantize.overflow with
      | None -> "none"
      | Some ev ->
          Printf.sprintf "%s raw=%s"
            (match ev.Fixpt.Quantize.direction with
            | `Above -> "above"
            | `Below -> "below")
            (hex ev.Fixpt.Quantize.raw) );
  ]

let compare_case acc case =
  let spec = Quantize_spec.quantize case.dtype case.value in
  let impl = Fixpt.Quantize.quantize case.dtype case.value in
  List.fold_left2
    (fun acc (field, s) (_, i) ->
      if String.equal s i then acc
      else { case; field; spec = s; impl = i } :: acc)
    acc (fields_of spec) (fields_of impl)

let run ?seed ?(per_combo = 1000) () =
  let seed = match seed with Some s -> s | None -> default_seed () in
  let total = ref 0 in
  let mismatches = ref [] in
  let count = ref 0 in
  List.iteri
    (fun ci (sign, overflow, round) ->
      let rng = Stats.Rng.create ~seed:(seed + (1_000_003 * ci)) in
      for i = 0 to per_combo - 1 do
        let n = gen_n rng sign i in
        let f = gen_f rng n i in
        let dtype = Fixpt.Dtype.make "t" ~n ~f ~sign ~overflow ~round () in
        let value = gen_value rng dtype i in
        if Float.is_nan value then ()
        else begin
          incr total;
          let before = List.length !mismatches in
          let found = compare_case [] { dtype; value } in
          count := !count + List.length found;
          if before < max_reported then
            mismatches :=
              !mismatches
              @ List.filteri (fun k _ -> before + k < max_reported) found
        end
      done)
    combos;
  {
    seed;
    per_combo;
    total_cases = !total;
    mismatches = !mismatches;
    mismatch_count = !count;
  }

let passed r = r.mismatch_count = 0

let pp_mismatch ppf m =
  Format.fprintf ppf "%s  value=%s (%h): spec %s=%s, impl %s"
    (Fixpt.Dtype.to_string m.case.dtype)
    (hex m.case.value) m.case.value m.field m.spec m.impl

let pp_report ppf r =
  Format.fprintf ppf
    "differential: %d cases (%d per mode combination, %d combinations), seed \
     %d: %d mismatch(es)"
    r.total_cases r.per_combo (List.length combos) r.seed r.mismatch_count;
  List.iter (fun m -> Format.fprintf ppf "@.  %a" pp_mismatch m) r.mismatches
