(** Analytical quantization-noise propagation.

    The analytical counterpart of the simulation's error monitoring, and
    the engine behind the interpolative-style baseline ([3] in the
    paper): every [Quantize] node adds noise with the uniform model
    (mean = rounding bias, variance = q²/12); [Input] nodes may carry
    source noise (A/D converter, channel SNR).  Noise moments propagate
    under the standard independence assumptions:

    - add/sub: means add/subtract {e with their signs} (two floor-mode
      biases feeding a subtraction partially cancel, exactly as in
      simulation), magnitude bounds add, variances add;
    - mul: for [z = x·y] with independent errors and signal power bounded
      by the (statically known) ranges: [var(ε_z) ≤ ŷ²·var(ε_x) +
      x̂²·var(ε_y)] where [x̂] is the magnitude bound of [x] — the
      conservative bound a pure analysis must take.  The signed mean
      uses the range {e midpoints} as the signal expectation estimate,
      the magnitude bound uses [x̂] as before;
    - delay: moments pass through one cycle; loops iterate to a fixpoint
      (a loop with noise gain ≥ 1 diverges — detected and reported, the
      analytical mirror of the §4.2 divergence on feedback signals).

    Each node carries three moments of the difference error ε:

    - [mean] — the signed first-order estimate of E[ε].  Signed so
      opposing rounding biases cancel instead of stacking; it is an
      {e estimate}, not a bound, because multiplications substitute the
      range midpoint for the unknown signal expectation;
    - [mag] — the conservative bound on |E[ε]| ([|mean| ≤ mag] by
      construction).  This is the monotone quantity the fixpoint
      iterates on and the one sizing decisions should trust;
    - [var] — the variance, as before.

    A derived LSB position via the paper's σ-rule is in {!Wordlength}. *)

type moments = { mean : float; mag : float; var : float }

let zero_m = { mean = 0.0; mag = 0.0; var = 0.0 }

type result = {
  noise : (string * moments) array;  (** per node, node order *)
  diverged : string list;  (** loop noise did not converge *)
  iterations : int;
}

(* Magnitude bound of a node from a prior range analysis. *)
let mag_of ranges id =
  let _, iv = ranges.(id) in
  Interval.mag iv

(* Signal-expectation estimate: the range midpoint, when the range is
   finite.  None (sign unknown) degrades the signed mean estimate to 0
   at that node — the [mag] bound still covers it. *)
let mid_of ranges id =
  let _, iv = ranges.(id) in
  match Interval.bounds iv with
  | Some (lo, hi) when Float.is_finite lo && Float.is_finite hi ->
      Some (0.5 *. (lo +. hi))
  | _ -> None

(* inf · 0 must read as 0 here: an unbounded signal contributes no noise
   through a noiseless operand *)
let gmul a b = if a = 0.0 || b = 0.0 then 0.0 else a *. b

(* Signed mean through one gain factor known only as an option. *)
let smul factor m =
  match factor with Some f -> gmul f m | None -> 0.0

(* Of two competing errors (min/max/select arms), the one with the
   larger estimated bias wins — keeping its sign. *)
let dominant_mean a b =
  if Float.abs b.mean > Float.abs a.mean then b.mean else a.mean

let transfer ranges (n : Node.t) (args : moments list) ~(input_noise : string -> moments) : moments =
  match (n.Node.op, args) with
  | Node.Input _, [] ->
      (* normalise: user-supplied source noise keeps |mean| ≤ mag *)
      let m = input_noise n.Node.name in
      { m with mag = Float.max m.mag (Float.abs m.mean) }
  | Node.Const _, [] -> zero_m
  | Node.Add, [ a; b ] ->
      { mean = a.mean +. b.mean; mag = a.mag +. b.mag; var = a.var +. b.var }
  | Node.Sub, [ a; b ] ->
      (* signed means subtract — floor biases on both arms cancel *)
      { mean = a.mean -. b.mean; mag = a.mag +. b.mag; var = a.var +. b.var }
  | Node.Mul, [ a; b ] ->
      let ia = List.nth n.Node.inputs 0 and ib = List.nth n.Node.inputs 1 in
      let xa = mag_of ranges ia and xb = mag_of ranges ib in
      {
        mean = smul (mid_of ranges ib) a.mean +. smul (mid_of ranges ia) b.mean;
        mag = gmul xb a.mag +. gmul xa b.mag;
        var = gmul (xb *. xb) a.var +. gmul (xa *. xa) b.var;
      }
  | Node.Div, [ a; b ] ->
      (* bound via 1/y magnitude when the divisor range excludes 0 *)
      let ia = List.nth n.Node.inputs 0 and ib = List.nth n.Node.inputs 1 in
      let _, ivb = ranges.(ib) in
      let inv_mag =
        match Interval.bounds ivb with
        | Some (lo, hi) when lo > 0.0 || hi < 0.0 ->
            1.0 /. Float.min (Float.abs lo) (Float.abs hi)
        | _ -> Float.infinity
      in
      let xa = mag_of ranges ia in
      (* ε_z ≈ ε_x/y − (x/y²)·ε_y at the range midpoints; when either
         midpoint is unavailable the signed estimate degrades to 0 and
         only the bound speaks *)
      let mean =
        match (mid_of ranges ia, mid_of ranges ib) with
        | Some ma, Some mb when mb <> 0.0 && Float.is_finite inv_mag ->
            gmul (1.0 /. mb) a.mean -. gmul (ma /. (mb *. mb)) b.mean
        | _ -> 0.0
      in
      {
        mean;
        mag =
          gmul inv_mag a.mag
          +. gmul (gmul xa (inv_mag *. inv_mag)) b.mag;
        var =
          gmul (inv_mag *. inv_mag) a.var
          +. gmul (gmul (xa *. xa) (inv_mag ** 4.0)) b.var;
      }
  | Node.Neg, [ a ] -> { a with mean = -.a.mean }
  | Node.Abs, [ a ] ->
      (* d|x|/dx = sign(x): the error passes with the input's sign when
         the range pins it down, else the bias direction is unknown *)
      let _, iv = ranges.(List.nth n.Node.inputs 0) in
      let mean =
        match Interval.bounds iv with
        | Some (lo, _) when lo >= 0.0 -> a.mean
        | Some (_, hi) when hi <= 0.0 -> -.a.mean
        | _ -> 0.0
      in
      { a with mean }
  | Node.Min, [ a; b ] | Node.Max, [ a; b ] ->
      (* conservative: whichever operand wins, its error passes *)
      {
        mean = dominant_mean a b;
        mag = Float.max a.mag b.mag;
        var = Float.max a.var b.var;
      }
  | Node.Shift k, [ a ] ->
      let s = 2.0 ** Float.of_int k in
      { mean = a.mean *. s; mag = a.mag *. s; var = a.var *. s *. s }
  | Node.Delay _, [ a ] -> a
  | Node.Quantize dt, [ a ] ->
      let _, bias, qvar = Fixpt.Quantize.noise_model dt in
      {
        mean = a.mean +. bias;
        mag = a.mag +. Float.abs bias;
        var = a.var +. qvar;
      }
  | Node.Saturate _, [ a ] -> a
  | Node.Alias, [ a ] -> a
  | Node.Select, [ _c; a; b ] ->
      {
        mean = dominant_mean a b;
        mag = Float.max a.mag b.mag;
        var = Float.max a.var b.var;
      }
  | op, args ->
      invalid_arg
        (Printf.sprintf "Noise_analysis: %s applied to %d args"
           (Node.op_name (fst (op, args)))
           (List.length args))

let default_max_iter = 64
let divergence_threshold = 1.0e12

(** [run graph ~ranges ?input_noise ()] — [ranges] is a completed
    {!Range_analysis.result} (needed for multiplication bounds);
    [input_noise] gives the source error moments per input node
    (default: noiseless inputs). *)
let run ?(max_iter = default_max_iter)
    ?(input_noise = fun (_ : string) -> zero_m) graph
    ~(ranges : Range_analysis.result) =
  Graph.validate_exn graph;
  let ns = Array.of_list (Graph.nodes graph) in
  let cur = Array.make (Array.length ns) zero_m in
  let changed = ref true in
  let iter = ref 0 in
  let close a b =
    Float.abs (a.mean -. b.mean) <= 1e-15 +. (1e-9 *. Float.abs b.mean)
    && Float.abs (a.mag -. b.mag) <= 1e-15 +. (1e-9 *. Float.abs b.mag)
    && Float.abs (a.var -. b.var) <= 1e-24 +. (1e-9 *. Float.abs b.var)
  in
  while !changed && !iter < max_iter do
    changed := false;
    incr iter;
    Array.iteri
      (fun i (n : Node.t) ->
        let args = List.map (fun j -> cur.(j)) n.Node.inputs in
        let next = transfer ranges.Range_analysis.ranges n args ~input_noise in
        (* the bound moments only grow along the iteration (monotone
           system); the signed mean is NOT clamped — forcing it
           monotone is exactly the bug that turned every floor bias
           positive and broke cancellation — it converges on its own in
           any loop whose bound converges *)
        let next =
          {
            mean = next.mean;
            mag = Float.max next.mag cur.(i).mag;
            var = Float.max next.var cur.(i).var;
          }
        in
        if not (close next cur.(i)) then begin
          cur.(i) <- next;
          changed := true
        end)
      ns
  done;
  let noise = Array.mapi (fun i (n : Node.t) -> (n.Node.name, cur.(i))) ns in
  let diverged =
    Array.to_list ns
    |> List.filter_map (fun (n : Node.t) ->
           let m = cur.(n.Node.id) in
           let bad x =
             (!changed && not (Float.is_finite x))
             || x > divergence_threshold || Float.is_nan x
           in
           if bad m.var || bad m.mag then Some n.Node.name else None)
  in
  { noise; diverged; iterations = !iter }

let moments_of result name =
  Array.to_list result.noise
  |> List.find_opt (fun (n, _) -> String.equal n name)
  |> Option.map snd

let sigma_of result name =
  Option.map (fun m -> sqrt m.var) (moments_of result name)

let pp ppf result =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun (name, m) ->
      Format.fprintf ppf "%-12s mu=%.3g |mu|<=%.3g sigma=%.3g@," name m.mean
        m.mag (sqrt m.var))
    result.noise;
  if result.diverged <> [] then
    Format.fprintf ppf "diverged: %s@," (String.concat ", " result.diverged);
  Format.fprintf ppf "@]"
