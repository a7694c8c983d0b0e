(** Pluggable candidate generators — the search strategies of the sweep
    engine.

    A generator is a wave protocol: {!next} receives the evaluated
    results of the wave it produced last time (initially [[]]) and
    returns the next batch of candidates, or [[]] when the search is
    finished.  All candidates of one wave are independent, so the pool
    evaluates a whole wave in parallel; adaptive strategies (bisection,
    Pareto refinement) place their data dependency {e between} waves.

    Generators are deterministic: candidate ids are assigned from a
    private counter in generation order, and every decision is a pure
    function of the (deterministic) evaluation results — so the stream
    of candidates is identical however many workers evaluate it. *)

type result = Candidate.t * Refine.Eval.metrics

type t = {
  name : string;  (** strategy name, echoed in the report *)
  next : result list -> Candidate.t list;
      (** feed the previous wave's results, get the next wave; [[]]
          terminates *)
  conclusion : unit -> (string * string) list;
      (** strategy verdict (key/value) once the search is done, e.g.
          the bisection's selected [f] *)
}

let name t = t.name
let next t results = t.next results
let conclusion t = t.conclusion ()

(* Worst (minimum) probe SQNR across a set of results — adaptive
   strategies judge an [f] by its least lucky stimulus seed.  A probe
   with no samples counts as -inf (failure). *)
let worst_sqnr results =
  List.fold_left
    (fun acc ((_ : Candidate.t), (m : Refine.Eval.metrics)) ->
      let s =
        match m.Refine.Eval.sqnr_db with
        | Some s -> s
        | None -> Float.neg_infinity
      in
      Float.min acc s)
    Float.infinity results

(* Uniform candidates at [f] under every seed, numbered from [id]'s
   next value.  They share one assigns list: candidates are immutable,
   and a large wave (and the report that keeps it) then holds one list
   per [f] rather than one per candidate. *)
let uniform_at ~id ~specs ~seeds f =
  let proto = Candidate.of_uniform ~id:0 ~specs ~f ~stim_seed:0 in
  List.map
    (fun stim_seed ->
      incr id;
      { proto with Candidate.id = !id; stim_seed })
    seeds

(* --- grid ---------------------------------------------------------------- *)

let grid ~specs ~f_min ~f_max ~seeds =
  if f_min > f_max then invalid_arg "Sweep.Generator.grid: f_min > f_max";
  if seeds = [] then invalid_arg "Sweep.Generator.grid: no stimulus seeds";
  let emitted = ref false in
  let next _results =
    if !emitted then []
    else begin
      emitted := true;
      let id = ref (-1) in
      List.concat_map
        (uniform_at ~id ~specs ~seeds)
        (List.init (f_max - f_min + 1) (fun i -> f_min + i))
    end
  in
  { name = "grid"; next; conclusion = (fun () -> []) }

(* --- bisection on f ------------------------------------------------------ *)

(* Minimal uniform [f] whose worst-seed SQNR meets [target_db],
   assuming SQNR is monotone in f (true for a fixed int_bits budget:
   more fractional bits, less quantization noise).  Each wave evaluates
   one midpoint under every seed. *)
let bisect ~specs ~f_min ~f_max ~target_db ~seeds =
  if f_min > f_max then invalid_arg "Sweep.Generator.bisect: f_min > f_max";
  if seeds = [] then invalid_arg "Sweep.Generator.bisect: no stimulus seeds";
  let lo = ref f_min and hi = ref f_max in
  let id = ref (-1) in
  (* worst SQNR of the smallest feasible f evaluated so far, keyed by f *)
  let verdict = ref None in
  let state = ref `Searching in
  let wave_for f = uniform_at ~id ~specs ~seeds f in
  let last_f results =
    match results with
    | ((c : Candidate.t), _) :: _ -> c.Candidate.uniform_f
    | [] -> None
  in
  let emit_next () =
    if !lo < !hi then wave_for ((!lo + !hi) / 2)
    else begin
      (* converged on [lo]; confirm it once if no midpoint was [lo] *)
      match !verdict with
      | Some (f, _) when f = !lo ->
          state := `Finished;
          []
      | _ ->
          state := `Confirming;
          wave_for !lo
    end
  in
  let next results =
    match !state with
    | `Finished -> []
    | `Confirming ->
        (match (last_f results, results) with
        | Some f, _ :: _ -> verdict := Some (f, worst_sqnr results)
        | _ -> ());
        state := `Finished;
        []
    | `Searching -> (
        match (last_f results, results) with
        | Some f, _ :: _ ->
            let w = worst_sqnr results in
            if w >= target_db then begin
              hi := f;
              verdict := Some (f, w)
            end
            else lo := min (f + 1) !hi;
            emit_next ()
        | _ -> emit_next ())
  in
  let conclusion () =
    [
      ("selected_f", string_of_int !lo);
      ( "meets_target",
        match !verdict with
        | Some (f, w) when f = !lo ->
            if w >= target_db then "true" else "false"
        | _ -> "unknown" );
      ("target_db", Printf.sprintf "%.17g" target_db);
    ]
  in
  { name = "bisect"; next; conclusion }

(* --- Pareto frontier refinement ------------------------------------------ *)

(* [a] dominates [b] when it is no more expensive and no less accurate,
   and strictly better on one axis.  A NaN SQNR fails every comparison,
   so it neither dominates nor is dominated. *)
let dominates (bits_a, sqnr_a) (bits_b, sqnr_b) =
  bits_a <= bits_b && sqnr_a >= sqnr_b
  && (bits_a < bits_b || sqnr_a > sqnr_b)

let sqnr_of (m : Refine.Eval.metrics) =
  match m.Refine.Eval.sqnr_db with
  | Some s -> s
  | None -> Float.neg_infinity

(* The larger of two SQNRs, skipping NaN; NaN only when both are. *)
let best a b = if Float.is_nan a || b > a then b else a

(** The Pareto-optimal subset of (total-bits, SQNR) points under
    {!dominates}, preserving input order.  One sort by bits, then one
    walk up the bit levels: an entry is dominated when a cheaper level
    reaches its SQNR or its own level exceeds it.  Shared with
    {!Report} so the frontier the adaptive generator refines and the
    frontier the report marks agree. *)
let pareto_front results =
  let entries = Array.of_list results in
  let n = Array.length entries in
  let bits = Array.map (fun (c, _) -> Candidate.total_bits c) entries in
  let sqnr = Array.map (fun (_, m) -> sqnr_of m) entries in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Int.compare bits.(i) bits.(j)) order;
  let dominated = Array.make n false in
  (* best non-NaN SQNR of the cheaper levels; NaN while there is none *)
  let cheaper = ref Float.nan in
  let lo = ref 0 in
  while !lo < n do
    let b = bits.(order.(!lo)) in
    let hi = ref !lo and level = ref Float.nan in
    while !hi < n && bits.(order.(!hi)) = b do
      level := best !level sqnr.(order.(!hi));
      incr hi
    done;
    for k = !lo to !hi - 1 do
      let i = order.(k) in
      dominated.(i) <- !cheaper >= sqnr.(i) || !level > sqnr.(i)
    done;
    cheaper := best !cheaper !level;
    lo := !hi
  done;
  List.filteri (fun i _ -> not dominated.(i)) results

(* Two waves: a coarse uniform-f scan, then the immediate f-neighbours
   of the coarse frontier that the scan skipped.  The report's frontier
   marking then runs over everything evaluated. *)
let pareto ?(coarse = 4) ~specs ~f_min ~f_max ~seeds () =
  if f_min > f_max then invalid_arg "Sweep.Generator.pareto: f_min > f_max";
  if seeds = [] then invalid_arg "Sweep.Generator.pareto: no stimulus seeds";
  if coarse < 2 then invalid_arg "Sweep.Generator.pareto: coarse < 2";
  let id = ref (-1) in
  let phase = ref `Coarse in
  let evaluated_f = ref [] in
  let wave_for fs =
    List.concat_map
      (fun f ->
        evaluated_f := f :: !evaluated_f;
        uniform_at ~id ~specs ~seeds f)
      fs
  in
  let next results =
    match !phase with
    | `Coarse ->
        phase := `Refine;
        let span = f_max - f_min in
        let points = min coarse (span + 1) in
        let fs =
          List.sort_uniq compare
            (List.init points (fun i ->
                 f_min + (i * span / max 1 (points - 1))))
        in
        wave_for fs
    | `Refine ->
        phase := `Done;
        let frontier = pareto_front results in
        let want =
          List.concat_map
            (fun ((c : Candidate.t), _) ->
              match c.Candidate.uniform_f with
              | Some f -> [ f - 1; f + 1 ]
              | None -> [])
            frontier
        in
        let fresh =
          List.sort_uniq compare
            (List.filter
               (fun f ->
                 f >= f_min && f <= f_max
                 && not (List.mem f !evaluated_f))
               want)
        in
        wave_for fresh
    | `Done -> []
  in
  { name = "pareto"; next; conclusion = (fun () -> []) }
