(** The parallel evaluation pool — wordlength exploration across
    domains (OCaml 5 [Domain], no external dependency).

    The pool runs the generator's wave protocol: each wave's candidates
    are independent, so each of [jobs] worker domains takes one
    contiguous share of the wave — on the compiled path, one lane block
    of a single compiled program.  Worker [i] owns a private workload
    instance, created lazily inside its first domain and reused across
    waves — domains are joined between waves, so the hand-off is
    race-free by happens-before.

    Determinism: a candidate's metrics are a pure function of
    (baseline snapshot, candidate), results land in a slot indexed by
    wave position, and the report folds them in candidate-id order —
    so the output is byte-identical for any [jobs], which the oracle's
    sweep gate checks. *)

type progress = { wave : int; evaluated : int; total_so_far : int }

(** A worker domain died outside the per-candidate containment (e.g.
    instance construction failed).  Raised only after {e every} domain
    of the wave has been joined, so no domain is left running and no
    result slot is silently unclaimed. *)
exception Worker_failure of { worker : int; candidate : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Worker_failure { worker; candidate; exn } ->
        Some
          (Printf.sprintf
             "Sweep.Pool.Worker_failure: worker %d died on candidate %d: %s"
             worker candidate (Printexc.to_string exn))
    | _ -> None)

(* Restore the baseline and point the stimulus at the candidate's
   seed — the only way candidates touch an env. *)
let prepare (inst : Workload.instance) (c : Candidate.t) =
  Sim.Env.restore_into inst.baseline inst.env;
  inst.set_seed c.Candidate.stim_seed

let record_span ~tid (c : Candidate.t) ~t0 ~t1 =
  Trace.Spans.record ~cat:"sweep" ~tid
    ~name:(Printf.sprintf "candidate %d" c.Candidate.id)
    ~args:
      [
        ("seed", string_of_int c.Candidate.stim_seed);
        ("total_bits", string_of_int (Candidate.total_bits c));
      ]
    ~t0 ~t1 ()

(* One candidate on its own: compiled when the workload supports it, a
   counter sweep stays interpreted — counters observe env assignment
   events the compiled run does not generate.  [tid] is the
   worker-domain lane of the optional wall-clock span. *)
let eval_candidate ?cache ~counters ~tid (workload : Workload.t)
    (inst : Workload.instance) (c : Candidate.t) =
  let spanned = Trace.Spans.enabled () in
  let t0 = if spanned then Trace.Spans.now () else 0.0 in
  prepare inst c;
  let metrics =
    match inst.Workload.compiled with
    | Some ce when not counters ->
        Refine.Eval.evaluate_compiled
          ~assigns:(Candidate.to_dtypes c)
          ~probe:workload.Workload.probe ?cache ~seed:c.Candidate.stim_seed
          ce inst.Workload.design
    | _ ->
        Refine.Eval.evaluate ~counters
          ~assigns:(Candidate.to_dtypes c)
          ~probe:workload.Workload.probe inst.Workload.design
  in
  if spanned then record_span ~tid c ~t0 ~t1:(Trace.Spans.now ());
  metrics

let instance_of (workload : Workload.t) instances i =
  match instances.(i) with
  | Some inst -> inst
  | None ->
      let inst = workload.Workload.make_instance () in
      instances.(i) <- Some inst;
      inst

(* The retry of a failed candidate, on a {e fresh} instance (the first
   failure may have corrupted the worker's private env in ways the
   baseline restore cannot undo — the replacement also protects every
   later candidate on this worker).  A persistent failure is
   quarantined as an [Error] carrying the printed exception and the
   attempt count — a pure function of (baseline, candidate), so the
   quarantine list is identical for any [jobs]. *)
let retry ?cache ~counters ~tid workload instances wi c =
  let fresh = workload.Workload.make_instance () in
  instances.(wi) <- Some fresh;
  match eval_candidate ?cache ~counters ~tid workload fresh c with
  | m -> Ok m
  | exception exn2 -> Error (Printexc.to_string exn2, 2)

(* One worker's contiguous share of a wave; [emit i outcome] receives
   the outcomes in share order.  On the compiled path the share is one
   lane block ({!Refine.Eval.evaluate_lanes}): candidates are prepared
   one by one, then executed together.  A candidate's span runs from
   its preparation to the next one's, so the block's execution is
   charged to its last candidate.  Otherwise each candidate is
   evaluated on its own. *)
let eval_share ?cache ~counters ~tid (workload : Workload.t) instances wi
    (share : Candidate.t array) ~emit =
  let inst = instance_of workload instances wi in
  let fail i =
    emit i (retry ?cache ~counters ~tid workload instances wi share.(i))
  in
  match inst.Workload.compiled with
  | Some ce when not counters ->
      let spanned = Trace.Spans.enabled () in
      let starts = Array.make (Array.length share) Float.nan in
      let lane i =
        let c = share.(i) in
        {
          Refine.Eval.assigns = Candidate.to_dtypes c;
          seed = c.Candidate.stim_seed;
          prepare =
            (fun () ->
              if spanned && Float.is_nan starts.(i) then
                starts.(i) <- Trace.Spans.now ();
              prepare inst c);
        }
      in
      let results =
        Refine.Eval.evaluate_lanes ~probe:workload.Workload.probe ?cache ce
          inst.Workload.design ~count:(Array.length share) ~lane
      in
      let t_end = if spanned then Trace.Spans.now () else 0.0 in
      Array.iteri
        (fun i r ->
          match r with
          | Ok m ->
              if spanned then
                record_span ~tid share.(i) ~t0:starts.(i)
                  ~t1:
                    (if i + 1 < Array.length share then starts.(i + 1)
                     else t_end);
              emit i (Ok m)
          | Error _ -> fail i)
        results
  | _ ->
      Array.iteri
        (fun i c ->
          match eval_candidate ?cache ~counters ~tid workload inst c with
          | m -> emit i (Ok m)
          | exception _first -> fail i)
        share

(* One wave: worker [wi] of [nw] takes the contiguous share
   [wi*len/nw, (wi+1)*len/nw); results land by wave index, so the
   split is irrelevant to the report.  A domain that dies outside the
   per-candidate containment parks its exception and the candidate it
   was on (the first unfilled slot of its share); every domain is
   joined before anything re-raises — no abandoned domains, no
   unclaimed slots. *)
let eval_wave ?cache workload instances ~jobs ~counters wave =
  let arr = Array.of_list wave in
  let len = Array.length arr in
  let results = Array.make len None in
  let nw = max 1 (min jobs len) in
  let lo wi = wi * len / nw in
  let work wi =
    let base = lo wi in
    eval_share ?cache ~counters ~tid:wi workload instances wi
      (Array.sub arr base (lo (wi + 1) - base))
      ~emit:(fun i r -> results.(base + i) <- Some r)
  in
  if nw = 1 then work 0
  else begin
    let worker_err = Array.make nw None in
    let worker wi () =
      try work wi
      with exn ->
        let rec unfilled k =
          if k < lo (wi + 1) - 1 && Option.is_some results.(k) then
            unfilled (k + 1)
          else k
        in
        worker_err.(wi) <- Some (exn, arr.(unfilled (lo wi)).Candidate.id)
    in
    let domains = Array.init nw (fun wi -> Domain.spawn (worker wi)) in
    (* join ALL domains first: re-raising at the first failed join would
       abandon running domains and leave slots unclaimed *)
    Array.iter Domain.join domains;
    Array.iteri
      (fun wi err ->
        match err with
        | Some (exn, candidate) ->
            raise (Worker_failure { worker = wi; candidate; exn })
        | None -> ())
      worker_err
  end;
  Array.to_list
    (Array.mapi
       (fun k r ->
         match r with
         | Some r -> (arr.(k), r)
         | None -> assert false (* every slot below [len] was claimed *))
       results)

let run ?(jobs = 1) ?budget ?cache ?checkpoint ?on_wave ?(counters = false)
    ~workload ~generator () =
  if jobs < 1 then invalid_arg "Sweep.Pool.run: jobs < 1";
  (match budget with
  | Some b when b < 1 -> invalid_arg "Sweep.Pool.run: budget < 1"
  | _ -> ());
  if counters && checkpoint <> None then
    invalid_arg
      "Sweep.Pool.run: counter-carrying sweeps cannot be checkpointed";
  let instances = Array.make jobs None in
  let remaining = ref budget in
  let all = ref [] in
  let failures = ref [] in
  let wave_no = ref 0 in
  let rec loop prev =
    let wave = Generator.next generator prev in
    (* budget is a candidate count: truncate the wave, never exceed *)
    let wave =
      match !remaining with
      | None -> wave
      | Some r ->
          let take = List.filteri (fun i _ -> i < r) wave in
          remaining := Some (r - List.length take);
          take
    in
    match wave with
    | [] -> ()
    | wave ->
        incr wave_no;
        (* a journaled wave replays instead of re-evaluating; a fresh
           one is evaluated then durably journaled before the sweep
           advances — so a kill mid-wave loses at most that wave *)
        let outcomes =
          match checkpoint with
          | None -> eval_wave ?cache workload instances ~jobs ~counters wave
          | Some cp -> (
              match Checkpoint.lookup cp ~wave:!wave_no wave with
              | Some outcomes -> outcomes
              | None ->
                  let outcomes =
                    eval_wave ?cache workload instances ~jobs ~counters wave
                  in
                  Checkpoint.record cp ~wave:!wave_no outcomes;
                  outcomes)
        in
        (* quarantined candidates are kept out of the generator's view
           (it can only score metrics) but still count as evaluated *)
        let results, failed =
          List.partition_map
            (fun (c, r) ->
              match r with
              | Ok m -> Either.Left (c, m)
              | Error (error, attempts) ->
                  Either.Right
                    { Report.candidate = c; error; attempts })
            outcomes
        in
        all := List.rev_append results !all;
        failures := List.rev_append failed !failures;
        (match on_wave with
        | Some f ->
            f
              {
                wave = !wave_no;
                evaluated = List.length outcomes;
                total_so_far =
                  List.length !all + List.length !failures;
              }
        | None -> ());
        loop results
  in
  loop [];
  Report.make ~workload:workload.Workload.name
    ~strategy:(Generator.name generator) ~probe:workload.Workload.probe
    ~conclusion:(Generator.conclusion generator) ~failures:!failures
    !all
