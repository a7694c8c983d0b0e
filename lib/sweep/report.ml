(** Sweep reports — the deterministic output contract of the engine.

    A report is built from the full evaluated candidate list {e sorted
    by candidate id}, and every aggregate statistic is folded in that
    order with the commutative monitor merges ({!Stats.Running.merge},
    {!Stats.Err_stats.merge}, {!Interval.join}).  Because candidate
    evaluation itself is deterministic, the rendered report — JSON and
    human — is byte-identical whatever worker count or scheduling
    produced the entries.  The oracle's sweep-determinism gate holds
    [to_json] at [jobs=1] and [jobs=N] to exactly that standard.

    Wall-clock timing deliberately does {e not} appear here: callers
    that want it (CLI, bench) print it out-of-band. *)

type entry = {
  candidate : Candidate.t;
  metrics : Refine.Eval.metrics;
  pareto : bool;  (** on the evaluated set's (bits, SQNR) frontier *)
}

(** A quarantined candidate: evaluation failed persistently (it was
    retried on a fresh instance), and the sweep degraded to a partial
    report instead of aborting.  [error] is the printed exception — a
    pure function of (baseline, candidate), so the quarantine list
    renders identically for any worker count. *)
type failure = {
  candidate : Candidate.t;
  error : string;  (** printed exception of the last attempt *)
  attempts : int;  (** evaluation attempts before quarantine *)
}

type t = {
  workload : string;
  strategy : string;
  probe : string;
  entries : entry list;  (** ascending candidate id *)
  conclusion : (string * string) list;  (** the generator's verdict *)
  agg_values : Stats.Running.t;
      (** probe value monitors of every candidate, merged in id order *)
  agg_err : Stats.Err_stats.t;
      (** probe error monitors of every candidate, merged in id order *)
  agg_range : Interval.t;  (** join of observed probe ranges *)
  agg_overflows : int;  (** Σ overflow events across candidates *)
  agg_counters : Trace.Counters.t option;
      (** event counters of every candidate, merged in id order (only
          when the pool ran with [~counters:true]) *)
  failures : failure list;  (** quarantined candidates, ascending id *)
}

(* Total order on candidates for the quarantine list: id first, then
   stimulus seed, then the structural assignment list.  Sorting by id
   alone is only a total order when ids are unique — generators
   renumber per wave, but a driver stitching reports together (or a
   future multi-seed generator) can legitimately present duplicate
   ids, and the determinism contract must not depend on the incoming
   (scheduling-dependent) order of equal keys. *)
let candidate_key (c : Candidate.t) =
  ( c.Candidate.id,
    c.Candidate.stim_seed,
    List.map
      (fun (a : Candidate.assign) ->
        (a.Candidate.signal, a.Candidate.n, a.Candidate.f))
      c.Candidate.assigns )

let make ~workload ~strategy ~probe ~conclusion ?(failures = []) results =
  let failures =
    List.sort
      (fun (a : failure) b ->
        compare (candidate_key a.candidate) (candidate_key b.candidate))
      failures
  in
  let sorted =
    List.sort
      (fun ((a : Candidate.t), _) (b, _) ->
        compare a.Candidate.id b.Candidate.id)
      results
  in
  (* marked by id, so a duplicate id shares its twin's mark *)
  let front = Hashtbl.create 64 in
  List.iter
    (fun ((c : Candidate.t), _) -> Hashtbl.replace front c.Candidate.id ())
    (Generator.pareto_front sorted);
  let on_front (c : Candidate.t) = Hashtbl.mem front c.Candidate.id in
  let entries =
    List.map
      (fun (c, m) -> { candidate = c; metrics = m; pareto = on_front c })
      sorted
  in
  let agg_values, agg_err, agg_range, agg_overflows, agg_counters =
    List.fold_left
      (fun (v, e, r, o, cnt) { metrics = m; _ } ->
        let v =
          match m.Refine.Eval.probe_values with
          | Some pv -> Stats.Running.merge v pv
          | None -> v
        in
        let e =
          match m.Refine.Eval.probe_err with
          | Some pe -> Stats.Err_stats.merge e pe
          | None -> e
        in
        let r =
          match
            Option.bind m.Refine.Eval.probe_values Stats.Running.range
          with
          | Some (lo, hi) -> Interval.join r (Interval.make lo hi)
          | None -> r
        in
        let cnt =
          match (cnt, m.Refine.Eval.counters) with
          | acc, None -> acc
          | None, Some c -> Some (Trace.Counters.copy c)
          | Some acc, Some c -> Some (Trace.Counters.merge acc c)
        in
        (v, e, r, o + m.Refine.Eval.overflow_count, cnt))
      ( Stats.Running.create (),
        Stats.Err_stats.create (),
        Interval.empty,
        0,
        None )
      entries
  in
  {
    workload;
    strategy;
    probe;
    entries;
    conclusion;
    agg_values;
    agg_err;
    agg_range;
    agg_overflows;
    agg_counters;
    failures;
  }

(* --- JSON ---------------------------------------------------------------- *)

(* The literals follow {!Trace.Json}'s rules — shortest-exact floats,
   one escaper — so reports, counters and trace exports format alike,
   and the determinism gate can compare reports as strings.  A sweep
   wave's report is hundreds of kilobytes: it is rendered straight into
   one buffer, sized from its entries up front, with no intermediate
   string per entry or assignment. *)
let js_string = Trace.Json.string_lit
let add = Buffer.add_string
let add_int b i = add b (string_of_int i)
let add_float b v = add b (Trace.Json.float_lit v)

let add_running b r =
  add b "{\"count\": ";
  add_int b (Stats.Running.count r);
  add b ", \"mean\": ";
  add_float b (Stats.Running.mean r);
  add b ", \"min\": ";
  add_float b (Stats.Running.min_value r);
  add b ", \"max\": ";
  add_float b (Stats.Running.max_value r);
  add b ", \"sigma\": ";
  add_float b (Stats.Running.stddev r);
  add b "}"

let add_assign b (a : Candidate.assign) =
  add b "{\"signal\": ";
  Trace.Json.add_string_lit b a.Candidate.signal;
  add b ", \"n\": ";
  add_int b a.Candidate.n;
  add b ", \"f\": ";
  add_int b a.Candidate.f;
  add b "}"

let add_entry b (e : entry) =
  let c = e.candidate and m = e.metrics in
  add b "    {\"id\": ";
  add_int b c.Candidate.id;
  add b ", \"stim_seed\": ";
  add_int b c.Candidate.stim_seed;
  add b ", \"total_bits\": ";
  add_int b (Candidate.total_bits c);
  add b ", \"sqnr_db\": ";
  add b (Trace.Json.float_opt m.Refine.Eval.sqnr_db);
  add b ", \"overflows\": ";
  add_int b m.Refine.Eval.overflow_count;
  add b ", \"err_max\": ";
  add_float b m.Refine.Eval.probe_err_max;
  add b ", \"pareto\": ";
  add b (Trace.Json.bool_lit e.pareto);
  add b ", \"assigns\": [";
  List.iteri
    (fun i a ->
      if i > 0 then add b ", ";
      add_assign b a)
    c.Candidate.assigns;
  add b "]}"

(* [add_entry]'s output is about 190 bytes plus 36 and the name per
   assignment. *)
let size_hint t =
  List.fold_left
    (fun n (e : entry) ->
      List.fold_left
        (fun n (a : Candidate.assign) ->
          n + 36 + String.length a.Candidate.signal)
        (n + 192) e.candidate.Candidate.assigns)
    1024 t.entries

let to_json t =
  let b = Buffer.create (size_hint t) in
  add b "{\n  \"workload\": ";
  Trace.Json.add_string_lit b t.workload;
  add b ",\n  \"strategy\": ";
  Trace.Json.add_string_lit b t.strategy;
  add b ",\n  \"probe\": ";
  Trace.Json.add_string_lit b t.probe;
  add b ",\n  \"candidates\": ";
  add_int b (List.length t.entries);
  add b ",\n  \"entries\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then add b ",\n";
      add_entry b e)
    t.entries;
  add b "\n  ],\n  \"failures\": [";
  List.iteri
    (fun i (f : failure) ->
      if i > 0 then add b ", ";
      add b "{\"id\": ";
      add_int b f.candidate.Candidate.id;
      add b ", \"stim_seed\": ";
      add_int b f.candidate.Candidate.stim_seed;
      add b ", \"attempts\": ";
      add_int b f.attempts;
      add b ", \"error\": ";
      Trace.Json.add_string_lit b f.error;
      add b "}")
    t.failures;
  add b "],\n  \"aggregate\": {\"probe_values\": ";
  add_running b t.agg_values;
  add b ", \"consumed\": ";
  add_running b (Stats.Err_stats.consumed t.agg_err);
  add b ", \"produced\": ";
  add_running b (Stats.Err_stats.produced t.agg_err);
  add b ", \"range\": ";
  (match Interval.bounds t.agg_range with
  | Some (lo, hi) ->
      add b "[";
      add_float b lo;
      add b ", ";
      add_float b hi;
      add b "]"
  | None -> add b "null");
  add b ", \"overflows\": ";
  add_int b t.agg_overflows;
  add b "},\n  \"conclusion\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then add b ", ";
      Trace.Json.add_string_lit b k;
      add b ": ";
      Trace.Json.add_string_lit b v)
    t.conclusion;
  add b "}\n}\n";
  Buffer.contents b

(** Flat counters JSON for a sweep that ran with [~counters:true]
    ([signals] is empty otherwise).  Leads with the sweep identity —
    but {e not} the job count or any timing — so the rendering is
    byte-identical for any [--jobs], which the oracle's trace gate
    compares for. *)
let counters_json t =
  let meta =
    [
      ("workload", js_string t.workload);
      ("strategy", js_string t.strategy);
      ("probe", js_string t.probe);
      ("candidates", string_of_int (List.length t.entries));
    ]
  in
  let counters =
    match t.agg_counters with
    | Some c -> c
    | None -> Trace.Counters.create ()
  in
  Trace.Counters.to_json ~meta counters

(* --- human --------------------------------------------------------------- *)

let pp ppf t =
  Format.fprintf ppf "sweep: workload %s, strategy %s, probe %s, %d candidates@."
    t.workload t.strategy t.probe (List.length t.entries);
  Format.fprintf ppf "%4s %6s %4s %6s %12s %6s %8s@." "id" "seed" "f"
    "bits" "SQNR(dB)" "ovf" "pareto";
  List.iter
    (fun (e : entry) ->
      let c = e.candidate in
      Format.fprintf ppf "%4d %6d %4s %6d %12s %6d %8s@." c.Candidate.id
        c.Candidate.stim_seed
        (match c.Candidate.uniform_f with
        | Some f -> string_of_int f
        | None -> "-")
        (Candidate.total_bits c)
        (match e.metrics.Refine.Eval.sqnr_db with
        | Some s when s = Float.infinity -> "inf"
        | Some s -> Printf.sprintf "%.2f" s
        | None -> "-")
        e.metrics.Refine.Eval.overflow_count
        (if e.pareto then "*" else ""))
    t.entries;
  if t.failures <> [] then begin
    Format.fprintf ppf "quarantined: %d candidate(s)@."
      (List.length t.failures);
    List.iter
      (fun (f : failure) ->
        Format.fprintf ppf "  id %d (seed %d, %d attempts): %s@."
          f.candidate.Candidate.id f.candidate.Candidate.stim_seed
          f.attempts f.error)
      t.failures
  end;
  Format.fprintf ppf "aggregate: probe %a@." Stats.Running.pp t.agg_values;
  (match Interval.bounds t.agg_range with
  | Some (lo, hi) ->
      Format.fprintf ppf "aggregate: observed range [%g, %g], %d overflows@."
        lo hi t.agg_overflows
  | None -> ());
  List.iter
    (fun (k, v) -> Format.fprintf ppf "conclusion: %s = %s@." k v)
    t.conclusion
