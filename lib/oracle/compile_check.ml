(** Compiled-executor gate: byte-equality between {!Compile} and
    {!Sfg.Graph.simulate} over the conformance workloads' flowgraphs,
    plus metric equality of the sweep's compiled candidate evaluation
    (alone and as a lane block).

    All stimulus is drawn from a fixed {!Fault.Plan}, pure in
    [(name, lane, step)] — the runs replay bit-identically anywhere,
    and the {e same} samples reach both executors. *)

type result = { name : string; detail : string; ok : bool }
type report = { results : result list }

let steps = 48
let batches = [ 1; 4; 64 ]
let bits = Int64.bits_of_float

(* --- deterministic stimulus into each input's declared interval -------- *)

(* Per (input, lane, step) samples spread over the input node's declared
   interval; an unusable interval (non-finite, degenerate, or absurdly
   wide) falls back to [-1, 1]. *)
let stimulus plan g =
  let ranges = Hashtbl.create 8 in
  List.iter
    (fun (n : Sfg.Node.t) ->
      match n.Sfg.Node.op with
      | Sfg.Node.Input iv ->
          let lo = Interval.lo iv and hi = Interval.hi iv in
          let lo, hi =
            if
              Float.is_finite lo && Float.is_finite hi
              && hi -. lo > 0.0
              && hi -. lo <= 1e6
            then (lo, hi)
            else (-1.0, 1.0)
          in
          Hashtbl.replace ranges n.Sfg.Node.name (lo, hi)
      | _ -> ())
    (Sfg.Graph.nodes g);
  fun name lane step ->
    let lo, hi =
      match Hashtbl.find_opt ranges name with
      | Some r -> r
      | None -> (-1.0, 1.0)
    in
    let u =
      Fault.Plan.draw plan ~stream:"stim"
        ~key:(Printf.sprintf "%d:%s" lane name)
        ~index:step
    in
    lo +. (u *. (hi -. lo))

(* --- byte equality over every node, step, lane ------------------------- *)

(* Interpreter lanes are computed once for the widest batch and shared
   by every batch size: the batching contract says lane [l] of any
   compiled run equals the single-lane reference fed lane [l]'s
   stimulus. *)
let mismatches ~batches ~steps g =
  let stim = stimulus (Fault.Plan.make ~seed:97 ()) g in
  let maxb = List.fold_left max 1 batches in
  let interp =
    Array.init maxb (fun lane ->
        Sfg.Graph.simulate g ~steps ~inputs:(fun name step ->
            stim name lane step))
  in
  let mism = ref 0 in
  List.iter
    (fun b ->
      let prog = Compile.compile ~batch:b g in
      let ct =
        Compile.traces prog ~steps
          ~inputs:(fun name step dst off ->
            for lane = 0 to b - 1 do
              dst.(off + lane) <- stim name lane step
            done)
      in
      for lane = 0 to b - 1 do
        List.iter2
          (fun (_, per_lane) (_, itr) ->
            Array.iteri
              (fun s iv ->
                if bits per_lane.(lane).(s) <> bits iv then incr mism)
              itr)
          ct interp.(lane)
      done)
    batches;
  !mism

let equality_mismatches ~batch ~steps g =
  mismatches ~batches:[ batch ] ~steps g

let check_graph ~workload g =
  let name = Printf.sprintf "compile/%s/extracted" workload in
  match mismatches ~batches ~steps g with
  | 0 ->
      {
        name;
        detail =
          Printf.sprintf "%d nodes bit-identical over B in {1,4,64} x %d steps"
            (Sfg.Graph.node_count g) steps;
        ok = true;
      }
  | n ->
      {
        name;
        detail = Printf.sprintf "%d mismatched node samples" n;
        ok = false;
      }
  | exception e -> { name; detail = Printexc.to_string e; ok = false }

let check_workload (w : Workloads.t) =
  match w.Workloads.build () with
  | b ->
      (match b.Workloads.extract_graph with
      | None -> []
      | Some f -> (
          match f () with
          | g -> [ check_graph ~workload:w.Workloads.name g ]
          | exception e ->
              [
                {
                  name = Printf.sprintf "compile/%s/extracted" w.Workloads.name;
                  detail = "extraction failed: " ^ Printexc.to_string e;
                  ok = false;
                };
              ]))
  | exception e ->
      [
        {
          name = Printf.sprintf "compile/%s" w.Workloads.name;
          detail = "build failed: " ^ Printexc.to_string e;
          ok = false;
        };
      ]

(* --- sweep metric parity ----------------------------------------------- *)

let stats_diff what a b =
  if Stats.Running.count a <> Stats.Running.count b then
    Some (what ^ " count")
  else if bits (Stats.Running.mean a) <> bits (Stats.Running.mean b) then
    Some (what ^ " mean")
  else if bits (Stats.Running.variance a) <> bits (Stats.Running.variance b)
  then Some (what ^ " variance")
  else if bits (Stats.Running.min_value a) <> bits (Stats.Running.min_value b)
  then Some (what ^ " min")
  else if bits (Stats.Running.max_value a) <> bits (Stats.Running.max_value b)
  then Some (what ^ " max")
  else None

let metrics_diff (a : Refine.Eval.metrics) (b : Refine.Eval.metrics) =
  if a.Refine.Eval.total_bits <> b.Refine.Eval.total_bits then
    Some "total_bits"
  else if a.Refine.Eval.overflow_count <> b.Refine.Eval.overflow_count then
    Some "overflow_count"
  else if
    bits a.Refine.Eval.probe_err_max <> bits b.Refine.Eval.probe_err_max
  then Some "probe_err_max"
  else
    match (a.Refine.Eval.sqnr_db, b.Refine.Eval.sqnr_db) with
    | Some x, Some y when bits x <> bits y -> Some "sqnr_db"
    | Some _, None | None, Some _ -> Some "sqnr_db presence"
    | _ -> (
        match (a.Refine.Eval.probe_values, b.Refine.Eval.probe_values) with
        | Some x, Some y -> (
            match stats_diff "probe_values" x y with
            | Some d -> Some d
            | None -> (
                match (a.Refine.Eval.probe_err, b.Refine.Eval.probe_err) with
                | Some ex, Some ey -> (
                    match
                      stats_diff "produced"
                        (Stats.Err_stats.produced ex)
                        (Stats.Err_stats.produced ey)
                    with
                    | Some d -> Some d
                    | None ->
                        stats_diff "consumed"
                          (Stats.Err_stats.consumed ex)
                          (Stats.Err_stats.consumed ey))
                | _ -> Some "probe_err presence"))
        | _ -> Some "probe_values presence")

let check_sweep_metrics () =
  let name = "compile/sweep-fir/metrics" in
  match
    let w =
      match Sweep.Workload.find "fir" with
      | Some w -> w
      | None -> failwith "fir sweep workload missing"
    in
    let inst = w.Sweep.Workload.make_instance () in
    let ce =
      match inst.Sweep.Workload.compiled with
      | Some ce -> ce
      | None -> failwith "fir sweep workload lost its compiled path"
    in
    let diffs = ref [] in
    let candidates =
      [ (0, 6); (1, 9); (2, 12) ]
      |> List.map (fun (seed, f) ->
             Sweep.Candidate.of_uniform ~id:seed
               ~specs:w.Sweep.Workload.specs ~f ~stim_seed:seed)
    in
    let probe = w.Sweep.Workload.probe in
    let lane i =
      let c = List.nth candidates i in
      let seed = c.Sweep.Candidate.stim_seed in
      {
        Refine.Eval.assigns = Sweep.Candidate.to_dtypes c;
        seed;
        prepare =
          (fun () ->
            Sim.Env.restore_into inst.Sweep.Workload.baseline
              inst.Sweep.Workload.env;
            inst.Sweep.Workload.set_seed seed);
      }
    in
    let interp =
      List.mapi
        (fun i _ ->
          let ln = lane i in
          ln.Refine.Eval.prepare ();
          let mi =
            Refine.Eval.evaluate ~assigns:ln.Refine.Eval.assigns ~probe
              inst.Sweep.Workload.design
          in
          ln.Refine.Eval.prepare ();
          let mc =
            Refine.Eval.evaluate_compiled ~assigns:ln.Refine.Eval.assigns
              ~probe ~seed:ln.Refine.Eval.seed ce inst.Sweep.Workload.design
          in
          (match metrics_diff mi mc with
          | Some d ->
              diffs :=
                Printf.sprintf "seed %d: %s" ln.Refine.Eval.seed d :: !diffs
          | None -> ());
          mi)
        candidates
    in
    (* the same candidates as the lanes of one compiled program *)
    let block =
      Refine.Eval.evaluate_lanes ~probe ce inst.Sweep.Workload.design
        ~count:(List.length candidates) ~lane
    in
    List.iteri
      (fun i mi ->
        let seed = (lane i).Refine.Eval.seed in
        match block.(i) with
        | Ok ml -> (
            match metrics_diff mi ml with
            | Some d ->
                diffs :=
                  Printf.sprintf "lane block seed %d: %s" seed d :: !diffs
            | None -> ())
        | Error e ->
            diffs :=
              Printf.sprintf "lane block seed %d: %s" seed
                (Printexc.to_string e)
              :: !diffs)
      interp;
    List.rev !diffs
  with
  | [] ->
      {
        name;
        detail =
          "evaluate_compiled metrics bit-identical to evaluate over 3 \
           candidates";
        ok = true;
      }
  | diffs -> { name; detail = String.concat "; " diffs; ok = false }
  | exception e -> { name; detail = Printexc.to_string e; ok = false }

(* --- the gate ----------------------------------------------------------- *)

let run () =
  {
    results =
      List.concat_map check_workload Workloads.all
      @ [ check_sweep_metrics () ];
  }

let passed r = List.for_all (fun x -> x.ok) r.results

let pp_report ppf r =
  Format.fprintf ppf "compiled-executor gate:@,";
  List.iter
    (fun x ->
      Format.fprintf ppf "  [%s] %-32s %s@,"
        (if x.ok then "ok" else "FAIL")
        x.name x.detail)
    r.results;
  let bad = List.filter (fun x -> not x.ok) r.results in
  if bad = [] then
    Format.fprintf ppf "  all %d checks passed@," (List.length r.results)
  else Format.fprintf ppf "  %d checks FAILED@," (List.length bad)
