(* serve-mix: [fxrefine serve] children with a bounded cache, driven
   by a seeded job mix over one connection in a closed loop (no think
   time).

   Run structure (one process):
   1. first lifetime, untimed: a fresh daemon with durable stores (cache
      directory and job journal) answers the first [prefix] jobs, then
      shuts down; disk_mb and peak_rss_mb are measured on it;
   2. set-up: [restarts] durable daemons in turn start over that store
      (cache adoption with CRC checks, journal recovery scan); each is
      timed from spawn to its first Pong, polled every 0.5 ms;
   3. the window: a daemon with an in-memory cache answers the mix,
      continuing after the prefix, for the run's seconds;
   4. checks: every recurrence of a job returned the same report bytes,
      and a seeded sample equals an in-process sweep without cache or
      journal. *)

open Common

let max_entries = 64
let prefix = 400
let restarts = 9
let poll_s = 0.0005

(* --- the job mix --------------------------------------------------------- *)

type kind = Grid | Bisect | Pareto | Sync | Resubmit

let kind_name = function
  | Grid -> "grid"
  | Bisect -> "bisect"
  | Pareto -> "pareto"
  | Sync -> "sync"
  | Resubmit -> "resubmit"

type job = { kind : kind; params : Serve.Protocol.sweep_params }

let params ?(workload = "fir") ~strategy ~f_min ~f_max ~seeds ~target_db () =
  {
    Serve.Protocol.workload;
    strategy;
    f_min;
    f_max;
    seeds;
    jobs = 1;
    budget = None;
    target_db;
    timeout_s = None;
  }

(* Each block of 100 consecutive jobs holds exactly the mix's shares,
   in a seeded order, and each kind's job sizes cycle through a fixed
   list by the job's ordinal in the block, so the work per block does
   not vary with the seed; the seed picks the order and the f
   positions.  Job 0 cannot be a resubmission. *)
let kind_at =
  let shares = [ (Grid, 70); (Bisect, 6); (Pareto, 6); (Resubmit, 13); (Sync, 5) ] in
  let memo = Hashtbl.create 64 in
  fun seed i ->
    let block =
      match Hashtbl.find_opt memo (seed, i / 100) with
      | Some b -> b
      | None ->
          let b = Array.of_list (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) shares) in
          let st = Random.State.make [| seed; i / 100; 0x77 |] in
          for k = Array.length b - 1 downto 1 do
            let r = Random.State.int st (k + 1) in
            let t = b.(k) in
            b.(k) <- b.(r);
            b.(r) <- t
          done;
          Hashtbl.replace memo (seed, i / 100) b;
          b
    in
    let pos = i mod 100 in
    let kind = block.(pos) in
    (* the job's ordinal among its block's jobs of the same kind *)
    let ord = ref 0 in
    for p = 0 to pos - 1 do
      if block.(p) = kind then incr ord
    done;
    match kind with Resubmit when i = 0 -> (Grid, 0) | k -> (k, !ord)

(* Job [i] of the mix for benchmark seed [seed]: a pure function of
   (seed, i).  Shares: 70 % overlapping fir grid windows (1-4 f values
   x 1-6 stimulus seeds inside f 2..17 x seeds 0..5, a working set of
   96 candidates against a 64-entry cache), 6 % fir bisect, 6 % fir
   pareto, 13 % identical resubmissions of an earlier job (checkpoint
   replay), 5 % one-candidate sync jobs (interpreted, never cached).  Every
   fresh job carries a distinct [target_db] offset of i * 1e-6 dB, so
   it is a new request to the daemon's journal (grid, pareto and sync
   ignore the target); only resubmissions repeat a request. *)
let rec job_at =
  let memo = Hashtbl.create 4096 in
  fun seed i ->
    match Hashtbl.find_opt memo (seed, i) with
    | Some j -> j
    | None ->
        let st = Random.State.make [| seed; i; 0x3d |] in
        let salt = float_of_int i *. 1e-6 in
        let int n = Random.State.int st n in
        let kind, ord = kind_at seed i in
        let j =
          match kind with
          | Grid ->
            let width = 1 + (ord mod 4) in
            let f_min = 2 + int (17 - width) in
            { kind = Grid;
              params = params ~strategy:"grid" ~f_min ~f_max:(f_min + width - 1)
                  ~seeds:(1 + (ord / 4 mod 6)) ~target_db:(40.0 +. salt) () }
          | Bisect ->
            let f_min = 2 + int 3 and f_max = 12 + int 6 in
            let target = [| 30.0; 40.0; 50.0 |].(ord mod 3) in
            { kind = Bisect;
              params = params ~strategy:"bisect" ~f_min ~f_max ~seeds:(1 + (ord / 3 mod 2) * 2)
                  ~target_db:(target +. salt) () }
          | Pareto ->
            let f_min = 2 + int 3 and f_max = 13 + int 5 in
            { kind = Pareto;
              params = params ~strategy:"pareto" ~f_min ~f_max ~seeds:(1 + (ord mod 2))
                  ~target_db:(40.0 +. salt) () }
          | Resubmit ->
            (* within the prefix, one of the previous 64 jobs (a journal
               replay); in the window, a prefix job.  Never a job that
               could still be in flight: two identical jobs at once
               race on the wave journal's fixed temp-file name and one
               fails with Sys_error ENOENT *)
            let back = if i < prefix then 1 + int (min i 64) else i - int prefix in
            { kind = Resubmit; params = (job_at seed (i - back)).params }
          | Sync ->
            let f = 6 + int 8 in
            { kind = Sync;
              params = params ~workload:"sync" ~strategy:"grid" ~f_min:f ~f_max:f
                  ~seeds:1 ~target_db:(40.0 +. salt) () }
        in
        Hashtbl.replace memo (seed, i) j;
        j

(* The request's identity: its line with an empty id. *)
let ident (p : Serve.Protocol.sweep_params) =
  Serve.Protocol.request_to_line (Serve.Protocol.Sweep { id = ""; params = p })

let report_candidates report =
  let key = "\"candidates\": " in
  let rec find i =
    if i + String.length key > String.length report then 0
    else if String.sub report i (String.length key) = key then
      Scanf.sscanf (String.sub report (i + String.length key) 12) "%d" Fun.id
    else find (i + 1)
  in
  find 0

let quarantine_free report =
  let key = "\"failures\": []" in
  let n = String.length key in
  let rec find i =
    i + n <= String.length report
    && (String.sub report i n = key || find (i + 1))
  in
  find 0

(* --- the daemon ---------------------------------------------------------- *)

let socket = "d.sock"

(* A daemon with [durable] stores (cache directory and job journal in
   the run directory) or with an in-memory cache only. *)
let spawn ~fxrefine ~durable =
  let log = Unix.openfile "daemon.log" [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let stores =
    if durable then [ "--cache-dir"; "cache"; "--journal-dir"; "journal" ] else []
  in
  let pid =
    Unix.create_process fxrefine
      (Array.of_list
         ([ fxrefine; "serve"; "--socket"; socket ] @ stores
         @ [ "--max-entries"; string_of_int max_entries ]))
      Unix.stdin log log
  in
  Unix.close log;
  pid

(* Connect as soon as the socket accepts, polling every [poll_s]; then
   Ping until Pong. *)
let await_pong pid =
  let deadline = now () +. 60.0 in
  let rec connect () =
    match Serve.Client.connect socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited before answering");
        if now () > deadline then failwith "daemon did not start";
        Unix.sleepf poll_s;
        connect ()
  in
  let c = connect () in
  match Serve.Client.request c (Serve.Protocol.Ping { id = "p" }) with
  | Serve.Protocol.Pong _ -> c
  | _ -> failwith "unexpected reply to ping"

let shutdown pid c =
  (match Serve.Client.request c (Serve.Protocol.Shutdown { id = "s" }) with
  | Serve.Protocol.Bye _ -> ()
  | _ -> failwith "unexpected reply to shutdown");
  Serve.Client.close c;
  ignore (Unix.waitpid [] pid);
  (try Unix.unlink socket with Unix.Unix_error _ -> ())

(* One answered (or failed) job as seen by the client. *)
type answer = {
  idx : int;
  kind : kind;
  id : string;  (** request identity, see {!ident} *)
  latency : float;
  t_done : float;
  report : string option;  (** [None]: Error or Busy *)
}

let submit seed c idx =
  let j = job_at seed idx in
  let t0 = now () in
  let resp =
    Serve.Client.request c
      (Serve.Protocol.Sweep { id = string_of_int idx; params = j.params })
  in
  let t1 = now () in
  let report =
    match resp with
    | Serve.Protocol.Report { report; _ } -> Some report
    | other ->
        Printf.printf "job %d (%s) failed: %s\n%!" idx (kind_name j.kind)
          (Serve.Protocol.response_to_line other);
        None
  in
  { idx; kind = j.kind; id = ident j.params; latency = t1 -. t0; t_done = t1; report }

(* --- checks -------------------------------------------------------------- *)

let build_generator (p : Serve.Protocol.sweep_params) specs =
  let seeds = List.init p.Serve.Protocol.seeds Fun.id in
  let f_min = p.Serve.Protocol.f_min and f_max = p.Serve.Protocol.f_max in
  match p.Serve.Protocol.strategy with
  | "grid" -> Sweep.Generator.grid ~specs ~f_min ~f_max ~seeds
  | "bisect" ->
      Sweep.Generator.bisect ~specs ~f_min ~f_max
        ~target_db:p.Serve.Protocol.target_db ~seeds
  | "pareto" -> Sweep.Generator.pareto ~specs ~f_min ~f_max ~seeds ()
  | s -> failwith ("unknown strategy " ^ s)

let local_report (p : Serve.Protocol.sweep_params) =
  let workload = Option.get (Sweep.Workload.find p.Serve.Protocol.workload) in
  let generator = build_generator p workload.Sweep.Workload.specs in
  Sweep.Report.to_json (Sweep.Pool.run ~jobs:1 ~workload ~generator ())

(* Recurrences must repeat the first report byte for byte; a seeded
   sample must equal a local uncached, unjournaled sweep. *)
let check ~seed answers =
  let first = Hashtbl.create 1024 in
  let params = Hashtbl.create 1024 in
  let bad = ref 0 and recurrences = ref 0 in
  List.iter
    (fun a ->
      match a.report with
      | None -> ()
      | Some r -> (
          match Hashtbl.find_opt first a.id with
          | None ->
              Hashtbl.add first a.id r;
              Hashtbl.add params a.id (job_at seed a.idx).params
          | Some r0 ->
              incr recurrences;
              if not (String.equal r r0) then begin
                Printf.printf "check: job %d (%s) recurred with a different report\n"
                  a.idx (kind_name a.kind);
                incr bad
              end))
    answers;
  let ids = Hashtbl.fold (fun k _ acc -> k :: acc) first [] |> List.sort compare in
  let picked = sample (Random.State.make [| seed; 0x5a |]) ~k:8 ids in
  List.iter
    (fun id ->
      if not (String.equal (local_report (Hashtbl.find params id)) (Hashtbl.find first id))
      then begin
        Printf.printf "check: daemon report differs from a local sweep: %s\n" id;
        incr bad
      end)
    picked;
  (!recurrences, List.length picked, !bad)

(* --- the end-to-end run -------------------------------------------------- *)

let stats c =
  match Serve.Client.request c (Serve.Protocol.Stats { id = "st" }) with
  | Serve.Protocol.Stats_reply { stats; _ } -> stats
  | _ -> failwith "unexpected reply to stats"

(* One window segment: the closed loop runs on [c] until [until]. *)
let segment ~seed c next ~until =
  let rec loop acc =
    if now () >= until then acc
    else begin
      let a = submit seed c !next in
      incr next;
      loop (a :: acc)
    end
  in
  loop []

let run_e2e ~seed ~seconds ~run_dir ~fxrefine =
  Sys.chdir run_dir;
  let fs = fs_type "." in
  (* 1. first lifetime *)
  let pid = spawn ~fxrefine ~durable:true in
  let c = await_pong pid in
  let warm = List.init prefix (fun i -> submit seed c i) in
  let rss = vm_hwm_mb pid in
  shutdown pid c;
  let cache_b = du "cache" and journal_b = du "journal" in
  (* 2. restarts over the inherited store *)
  let refs = ref (host_samples 5) in
  let setups =
    List.init restarts (fun _ ->
        let t0 = now () in
        let pid = spawn ~fxrefine ~durable:true in
        let c = await_pong pid in
        let dt = now () -. t0 in
        shutdown pid c;
        refs := host_samples 3 @ !refs;
        dt)
  in
  (* 3. the window, on a daemon with an in-memory cache: on the shared
     disk one fsync takes 0.25-0.5 ms and drifts with other tenants'
     I/O, and two identical in-process replays of the durable prefix
     differed by up to 40 % in wall time, which buries every other
     layer.  Durable writes are measured by the traced replay
     (serve.insert_us, sweep.checkpoint_record_us) and by disk_mb and
     setup_s above.  The last 100 prefix jobs warm its cache, and must
     reproduce the durable daemon's reports. *)
  let pid = spawn ~fxrefine ~durable:false in
  let c = await_pong pid in
  let rewarm = List.init 100 (fun i -> submit seed c (prefix - 100 + i)) in
  (* window segments of a tenth of it, with the host sampled between
     segments while the daemon is idle *)
  let s0 = stats c in
  let next = ref prefix in
  let segs = ref [] in
  let t_window = now () in
  while now () -. t_window < seconds do
    let t0 = now () in
    let answers = segment ~seed c next ~until:(t0 +. (seconds /. 10.0)) in
    let t1 = List.fold_left (fun a x -> Float.max a x.t_done) t0 answers in
    let before = List.filteri (fun i _ -> i < 5) !refs in
    let after = host_samples 5 in
    segs := (answers, t1 -. t0, host_factor (before @ after)) :: !segs;
    refs := after @ !refs
  done;
  let f = host_factor !refs in
  let s1 = stats c in
  let rss_window = vm_hwm_mb pid in
  shutdown pid c;
  (* 4. checks *)
  let window_answers = List.concat_map (fun (a, _, _) -> a) !segs in
  let all = warm @ rewarm @ window_answers in
  let recurrences, sampled, bad = check ~seed all in
  let ok a = a.report <> None in
  let errors = List.length (List.filter (fun a -> not (ok a)) all) in
  let quarantining a =
    match a.report with Some r -> not (quarantine_free r) | None -> false
  in
  let quarantined = List.length (List.filter quarantining all) in
  let rate count =
    median
      (List.map
         (fun (answers, dt, fs) ->
           float_of_int (List.fold_left (fun n a -> n + count a) 0 answers)
           *. fs /. dt)
         !segs)
  in
  let jobs_per_s = rate (fun a -> if ok a then 1 else 0) in
  let cand_per_s =
    rate (fun a -> match a.report with Some r -> report_candidates r | None -> 0)
  in
  let lat =
    sorted
      (List.concat_map
         (fun (answers, _, fs) ->
           List.map (fun a -> if ok a then a.latency /. fs else infinity) answers)
         !segs)
  in
  let n = Array.length lat in
  let raw_s = List.fold_left (fun a (_, dt, _) -> a +. dt) 0.0 !segs in
  let share k =
    let c = List.length (List.filter (fun a -> a.kind = k) window_answers) in
    Printf.sprintf "%s %.1f%%" (kind_name k)
      (100.0 *. float_of_int c /. float_of_int (max 1 n))
  in
  let hits = s1.Serve.Cache.hits - s0.Serve.Cache.hits
  and misses = s1.Serve.Cache.misses - s0.Serve.Cache.misses in
  {
    attempted = List.length all + sampled;
    failed = errors + quarantined + bad;
    notes =
      [
        Printf.sprintf
          "serve-mix: one connection, closed loop; --max-entries %d; prefix \
           %d jobs; %d jobs in %d segments, %.3f s"
          max_entries prefix n (List.length !segs) raw_s;
        "window mix: "
        ^ String.concat ", "
            (List.map share [ Grid; Bisect; Pareto; Resubmit; Sync ]);
        Printf.sprintf
          "raw: %.1f jobs/s over the window; host factor %.3f from %d \
           reference samples"
          (float_of_int (List.length (List.filter ok window_answers)) /. raw_s)
          f (List.length !refs);
        Printf.sprintf
          "window cache: %d hits, %d misses (hit ratio %.3f), %d inserts, %d \
           evictions"
          hits misses
          (float_of_int hits /. float_of_int (max 1 (hits + misses)))
          (s1.Serve.Cache.inserts - s0.Serve.Cache.inserts)
          (s1.Serve.Cache.evictions - s0.Serve.Cache.evictions);
        Printf.sprintf
          "latency samples %d%s; set-up samples %d (spawn to first Pong over \
           the inherited store)"
          n
          (if percentile_valid ~n 0.99 then ""
           else " (p99 NOT valid: < 1000 samples)")
          (List.length setups);
        Printf.sprintf
          "disk after the %d-job prefix: cache %.3f MB, journal %.3f MB; \
           daemon peak RSS %.2f MB after the prefix, %.2f MB after the window"
          prefix (mb cache_b) (mb journal_b) rss rss_window;
        Printf.sprintf
          "check: %d recurrences byte-compared, %d sampled jobs re-run \
           locally, %d failures; %d error/busy replies, %d quarantining reports"
          recurrences sampled bad errors quarantined;
        "run dir filesystem: " ^ fs;
      ];
    metrics =
      Layers.fill Layers.end_to_end
        [
          ("setup_s", median setups /. f);
          ("cand_per_s", cand_per_s);
          ("jobs_per_s", jobs_per_s);
          ("job_p50_ms", 1e3 *. quantile_sorted lat 0.5);
          ("job_p99_ms", 1e3 *. quantile_sorted lat 0.99);
          ("peak_rss_mb", rss);
          ("disk_mb", mb (cache_b + journal_b));
          (* one stratified block of 100 jobs *)
          ("verify_s", 100.0 /. jobs_per_s);
          ( "decided_frac",
            float_of_int
              (List.length
                 (List.filter (fun a -> ok a && not (quarantining a)) window_answers))
            /. float_of_int (max 1 n) );
        ];
  }

(* --- the traced run: an in-process sequential replay -------------------- *)

(* The daemon's wave-journal key for a job (Serve.Daemon's
   [checkpoint_of]). *)
let sweep_key (p : Serve.Protocol.sweep_params) =
  Sweep.Checkpoint.sweep_key ~workload:p.Serve.Protocol.workload
    ~strategy:p.Serve.Protocol.strategy ~context:(Serve.Codec.context ())
    [
      ("f_min", string_of_int p.Serve.Protocol.f_min);
      ("f_max", string_of_int p.Serve.Protocol.f_max);
      ("seeds", string_of_int p.Serve.Protocol.seeds);
      ( "budget",
        match p.Serve.Protocol.budget with Some b -> string_of_int b | None -> "none" );
      ("target_db", Printf.sprintf "%h" p.Serve.Protocol.target_db);
    ]

type replay = {
  exact : (string * float) list;
  total_s : float;
  wire : float list;
  service : (kind * string * float) list;  (** kind, service class, seconds *)
  report_bytes : float list;
  spans : Trace.Spans.span list;
  probe : Probe.t;
}

(* Replay jobs [0, prefix) one at a time through the layers the daemon
   uses: Protocol lines, a journal intent, a bounded persistent cache,
   a per-job wave checkpoint, Pool.run, Report.to_json.  [traced]
   installs the probe wrappers and enables spans. *)
let replay ~seed ~dir ~traced =
  rm_rf dir;
  let cache = Serve.Cache.create ~dir:(Filename.concat dir "cache") ~max_entries () in
  let jdir = Filename.concat dir "journal" in
  let journal = Serve.Journal.create ~dir:jdir in
  let ckdir = Filename.concat jdir "checkpoints" in
  let p = Probe.create () in
  let wire = ref [] and service = ref [] and report_bytes = ref [] in
  let replayed = ref 0 and spans = ref [] in
  let ec =
    let c = Serve.Codec.eval_cache cache in
    if traced then Probe.wrap_cache p c else c
  in
  Trace.Spans.reset ();
  Trace.Spans.set_enabled traced;
  let t0 = now () in
  for i = 0 to prefix - 1 do
    let j = job_at seed i in
    let line =
      Serve.Protocol.request_to_line
        (Serve.Protocol.Sweep { id = string_of_int i; params = j.params })
    in
    let w0 = now () in
    let req = Serve.Protocol.request_of_line line in
    let w1 = now () in
    let params =
      match req with
      | Some (Serve.Protocol.Sweep { params; _ }) -> params
      | _ -> failwith "request did not round-trip"
    in
    let name = Serve.Journal.fresh_name journal in
    Serve.Journal.record_intent journal { Serve.Journal.name; attempts = 1; line };
    let cp = Sweep.Checkpoint.create ~resume:true ~dir:ckdir ~key:(sweep_key params) () in
    let workload = Option.get (Sweep.Workload.find params.Serve.Protocol.workload) in
    let workload = if traced then Probe.wrap_workload p workload else workload in
    let generator = build_generator params workload.Sweep.Workload.specs in
    let generator = if traced then Probe.wrap_generator p generator else generator in
    let st0 = Serve.Cache.stats cache in
    let report =
      Sweep.Pool.run ~jobs:1 ~cache:ec ~checkpoint:cp
        ~on_wave:(if traced then Probe.on_wave p else ignore)
        ~workload ~generator ()
    in
    let json = Sweep.Report.to_json report in
    Serve.Journal.mark_done journal ~name;
    let st1 = Serve.Cache.stats cache in
    let hits = st1.Serve.Cache.hits - st0.Serve.Cache.hits
    and misses = st1.Serve.Cache.misses - st0.Serve.Cache.misses in
    let w2 = now () in
    let resp =
      Serve.Protocol.response_to_line
        (Serve.Protocol.Report { id = string_of_int i; report = json; hits; misses })
    in
    let w3 = now () in
    let waves, _ = Sweep.Checkpoint.replayed cp in
    replayed := !replayed + waves;
    let cls =
      if waves > 0 then "replay"
      else if params.Serve.Protocol.workload = "sync" then "interp"
      else if misses = 0 then "hit"
      else "miss"
    in
    ignore (Sys.opaque_identity resp);
    wire := (w1 -. w0 +. (w3 -. w2)) :: !wire;
    service := (j.kind, cls, w3 -. w1) :: !service;
    report_bytes := float_of_int (String.length json) :: !report_bytes;
    if traced then spans := Trace.Spans.drain () @ !spans
  done;
  let total_s = now () -. t0 in
  Trace.Spans.set_enabled false;
  let s = Serve.Cache.stats cache in
  let f = float_of_int in
  {
    exact =
      [
        ("serve.hits", f s.Serve.Cache.hits);
        ("serve.misses", f s.Serve.Cache.misses);
        ("serve.inserts", f s.Serve.Cache.inserts);
        ("serve.evictions", f s.Serve.Cache.evictions);
        ("sweep.replayed_waves", f !replayed);
        ("serve.cache_mb", mb (du (Filename.concat dir "cache")));
        ("serve.journal_mb", mb (du jdir));
      ];
    total_s;
    wire = !wire;
    service = !service;
    report_bytes = !report_bytes;
    spans = !spans;
    probe = p;
  }

let run_traced ~seed ~seconds:_ ~run_dir =
  Sys.chdir run_dir;
  (* plain and traced replays alternate, so host drift hits both sides
     of the overhead alike; all four must agree on the exact counts *)
  let plain = replay ~seed ~dir:"replay-plain" ~traced:false in
  let tr = replay ~seed ~dir:"replay-traced" ~traced:true in
  let plain2 = replay ~seed ~dir:"replay-plain" ~traced:false in
  let tr2 = replay ~seed ~dir:"replay-traced" ~traced:true in
  let mismatches, notes =
    List.fold_left
      (fun (n, notes) r ->
        let n', notes' = Layers.exact_check plain.exact r.exact in
        (n + n', notes' @ notes))
      (0, []) [ tr; plain2; tr2 ]
  in
  let overhead =
    (tr.total_s +. tr2.total_s -. plain.total_s -. plain2.total_s)
    /. (plain.total_s +. plain2.total_s)
  in
  let p = tr.probe in
  let cands = Probe.spans_named ~cat:"sweep" ~prefix:"candidate" tr.spans in
  let us xs = 1e6 *. mean xs in
  let service cls =
    1e3 *. mean (List.filter_map (fun (_, c, t) -> if c = cls then Some t else None) plain.service)
  in
  let hits = List.assoc "serve.hits" plain.exact and misses = List.assoc "serve.misses" plain.exact in
  {
    attempted = 1;
    failed = 0;
    notes =
      Printf.sprintf "serve-mix traced: sequential in-process replay of jobs 0..%d (%d lookups)"
        (prefix - 1) (int_of_float (hits +. misses))
      :: notes;
    metrics =
      Layers.fill Layers.per_layer
        (plain.exact
        @ [
            ("sim.restore_us", us (Probe.restore_durations p cands));
            ("sim.extract_us", us (Probe.to_list p.Probe.extract_dur));
            ("sim.run_us", us (Probe.to_list p.Probe.run_dur));
            ("sfg.key_us", us (Probe.key_durations p));
            ( "compile.compile_us",
              us (Probe.durations (Probe.spans_named ~cat:"compile" ~prefix:"compile" tr.spans)) );
            ( "compile.exec_us",
              us (Probe.durations (Probe.spans_named ~cat:"compile" ~prefix:"exec" tr.spans)) );
            ("sweep.generate_ms", 1e3 *. Probe.sum p.Probe.next_dur /. float_of_int prefix);
            ("sweep.checkpoint_record_us", us (Probe.record_durations p cands));
            ("serve.wire_us", us plain.wire);
            ("serve.report_kb", mean plain.report_bytes /. 1024.0);
            ("serve.lookup_us", us (Probe.to_list p.Probe.lookup_dur));
            ("serve.insert_us", us (Probe.to_list p.Probe.insert_dur));
            ("serve.lookups", hits +. misses);
            ("serve.hit_ratio", hits /. Float.max 1.0 (hits +. misses));
            ("serve.service_ms.hit", service "hit");
            ("serve.service_ms.miss", service "miss");
            ("serve.service_ms.replay", service "replay");
            ("serve.service_ms.interp", service "interp");
            ("trace.overhead_pct", 100.0 *. overhead);
            ("trace.exact_mismatches", float_of_int mismatches);
          ])
  }
