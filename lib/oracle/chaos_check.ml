(** Chaos gate — crash-safety under real [SIGKILL]s.

    The crash-safety contract has three legs, and this gate enforces
    each with actual kills, not simulations:

    {ol
    {- {b Sweep checkpoint/resume}: a checkpointed bisect sweep is
       forked and self-SIGKILLed at a seeded evaluation index mid-run;
       the parent then resumes from the surviving wave journal and the
       final report must be byte-identical to a never-killed run —
       crossing [jobs] between the killed writer and the resumer, so
       the journal is also shown to be parallelism-independent.  The
       killed run's cache directory must pass a full CRC scrub with
       zero corrupt entries (atomic writes leave no torn files).}
    {- {b Daemon supervision}: a journaled daemon is forked, handed a
       sweep job (fire-and-forget), SIGKILLed once its write-ahead
       intent is on disk, and restarted over the same directories.  The
       restarted daemon must drain every pending intent (re-run, not
       quarantined), answer a fresh identical job with the
       byte-identical report, leave no wave file behind once both are
       answered, then exit cleanly on a [SIGTERM] drain, removing its
       socket.}
    {- {b Corruption}: durable records are damaged at seeded offsets
       (truncations, single-bit flips, appended bytes).  In a populated cache
       directory {!Serve.Cache.scrub} must detect {e every} damaged
       entry, every subsequent lookup of a damaged key must be a clean
       miss, and undamaged entries must still read back verbatim.
       Every wave file of a journaled sweep is damaged: the resume must
       replay none of them and still render the reference report
       byte for byte.  Damaged daemon intents must all be quarantined,
       none re-run, while an undamaged one stays pending.}}

    All child pids are appended to [<scratch>/pids] so [scripts/check.sh]
    can reap orphans if the gate itself is killed. *)

(* --- report types --------------------------------------------------------- *)

type sweep_leg = {
  child_jobs : int;  (** parallelism of the killed run *)
  resume_jobs : int;  (** parallelism of the resuming run *)
  kill_after : int;  (** 1-based evaluation index the kill fired at *)
  killed : bool;  (** the child really died of [SIGKILL] *)
  waves_journaled : int;  (** wave files surviving the kill *)
  replayed_waves : int;  (** waves the resume skipped *)
  replayed_candidates : int;
  torn_entries : int;  (** corrupt cache entries after the kill — must be 0 *)
  identical : bool;  (** resumed report byte-equal to the uninterrupted one *)
}

type daemon_leg = {
  intent_seen : bool;  (** a write-ahead intent appeared before the kill *)
  killed : bool;
  pending_before_restart : int;  (** intents the dead daemon left behind *)
  pending_after : int;  (** intents still pending once recovery settled *)
  quarantined : int;
  recovered_identical : bool;  (** post-recovery resubmit byte-equal *)
  waves_left : int;  (** wave files once every job is answered — must be 0 *)
  drain_exit_ok : bool;  (** SIGTERM drain exited with status 0 *)
  socket_removed : bool;
}

type scrub_leg = {
  entries : int;
  corrupted : int;
  detected : int;  (** corrupt entries {!Serve.Cache.scrub} healed *)
  undetected : int;  (** corrupted keys a lookup still answered *)
  intact : bool;  (** every undamaged entry still reads back verbatim *)
  waves_corrupted : int;  (** every wave file of a journaled sweep *)
  waves_detected : int;  (** damaged waves the resume did not load *)
  waves_replayed : int;  (** waves the resume replayed — must be 0 *)
  waves_identical : bool;  (** resumed report byte-equal to the reference *)
  intents_corrupted : int;
  intents_quarantined : int;  (** damaged intents recovery quarantined *)
  intents_rerun : int;  (** damaged intents handed back to re-run — must be 0 *)
  intent_intact : bool;  (** an undamaged intent is still pending *)
}

type result = {
  sweeps : sweep_leg list;
  daemon : daemon_leg;
  scrub : scrub_leg;
}

type report = { jobs : int; seed : int; result : result }

(* --- scratch, pids, process plumbing -------------------------------------- *)

let scratch_counter = ref 0

(* The [fxchaos-] prefix is load-bearing: check.sh's exit trap sweeps
   [$TMPDIR/fxchaos-*] (and kills pids listed inside) if the gate dies. *)
let scratch_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fxchaos-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let note_pid ~scratch pid =
  let oc =
    open_out_gen
      [ Open_append; Open_creat ]
      0o644
      (Filename.concat scratch "pids")
  in
  output_string oc (string_of_int pid ^ "\n");
  close_out oc

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

let count_suffix dir suffix =
  List.length
    (List.filter
       (fun name -> Filename.check_suffix name suffix)
       (Store.Durable.readdir_sorted dir))

let poll ~deadline_s f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > deadline_s then false
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* --- leg 1: sweep kill/resume --------------------------------------------- *)

(* Small but multi-wave: bisect evaluates one midpoint per wave under
   every seed, so f in [2, 12] gives ~4 sequential 2-candidate waves —
   room to kill between a journaled wave and an unfinished one. *)
let f_min = 2
let f_max = 12
let target_db = 40.0
let seeds = [ 0; 1 ]

(* Arm the process to SIGKILL itself when evaluation [kill_after]
   (1-based, counted across waves and domains) starts.  [set_seed] is
   the one per-candidate call both the interpreter and the compiled
   evaluation paths make, so the counter sees every evaluation. *)
let killing_workload ~kill_after (w : Sweep.Workload.t) =
  let fired = Atomic.make 0 in
  {
    w with
    Sweep.Workload.make_instance =
      (fun () ->
        let inst = w.Sweep.Workload.make_instance () in
        {
          inst with
          Sweep.Workload.set_seed =
            (fun s ->
              if Atomic.fetch_and_add fired 1 + 1 >= kill_after then begin
                Unix.kill (Unix.getpid ()) Sys.sigkill;
                (* SIGKILL is not synchronous; make sure no further
                   evaluation sneaks in before delivery *)
                Unix.sleepf 60.0
              end;
              inst.Sweep.Workload.set_seed s);
        });
  }

let leg_key =
  Serve.Protocol.checkpoint_key
    {
      Serve.Protocol.workload = "fir-128";
      strategy = "bisect";
      f_min;
      f_max;
      seeds = List.length seeds;
      jobs = 1;
      budget = None;
      target_db;
      timeout_s = None;
    }

(* One checkpointed bisect sweep over [dir].  Returns the canonical
   JSON plus (waves already journaled at start, waves/candidates the
   run replayed). *)
let leg_sweep ?kill_after ~fresh ~dir ~jobs () =
  let workload = Sweep.Workload.fir ~n:128 () in
  let workload =
    match kill_after with
    | None -> workload
    | Some k -> killing_workload ~kill_after:k workload
  in
  let generator =
    Sweep.Generator.bisect ~specs:workload.Sweep.Workload.specs ~f_min ~f_max
      ~target_db ~seeds
  in
  let cache = Serve.Cache.create ~dir:(Filename.concat dir "cache") () in
  let checkpoint =
    Sweep.Checkpoint.create ~resume:(not fresh)
      ~dir:(Filename.concat dir "ckpt") ~key:leg_key ()
  in
  let journaled0 = Sweep.Checkpoint.waves checkpoint in
  let report =
    Sweep.Pool.run ~jobs
      ~cache:(Serve.Codec.eval_cache cache)
      ~checkpoint ~workload ~generator ()
  in
  (Sweep.Report.to_json report, journaled0, Sweep.Checkpoint.replayed checkpoint)

let fork_killed_sweep ~scratch ~dir ~jobs ~kill_after =
  match Unix.fork () with
  | 0 ->
      (* forked child: run until the armed kill fires.  [_exit], never
         [exit] — the parent's buffers and at_exit must not run here. *)
      (try ignore (leg_sweep ~kill_after ~fresh:true ~dir ~jobs ())
       with _ -> Unix._exit 4);
      Unix._exit 3 (* the kill never fired; the leg will read this as failure *)
  | pid ->
      note_pid ~scratch pid;
      wait_pid pid = Unix.WSIGNALED Sys.sigkill

(* --- leg 2: daemon kill/recovery ------------------------------------------ *)

(* The daemon job uses the interpreter-only sync workload with enough
   stimulus seeds per wave (~0.5 s of evaluation) that the SIGKILL
   reliably lands mid-job, with the write-ahead intent still on disk —
   a short job could finish (and [mark_done] its intent) inside the
   seeded pause before the kill. *)
let daemon_seeds = 64

let daemon_params jobs =
  {
    Serve.Protocol.workload = "sync";
    strategy = "bisect";
    f_min;
    f_max;
    seeds = daemon_seeds;
    jobs;
    budget = None;
    target_db;
    timeout_s = Some 300.0;
  }

let daemon_reference () =
  let workload = Sweep.Workload.sync () in
  let generator =
    Sweep.Generator.bisect ~specs:workload.Sweep.Workload.specs ~f_min ~f_max
      ~target_db
      ~seeds:(List.init daemon_seeds Fun.id)
  in
  Sweep.Report.to_json (Sweep.Pool.run ~jobs:1 ~workload ~generator ())

(* Connect without [Client] so nothing ever reads a response: the
   daemon is about to be killed mid-job and would never send one. *)
let raw_connect ~attempts socket =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n < attempts ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.02;
        go (n + 1)
    | exception exn ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise exn
  in
  go 1

let daemon_leg ~scratch st =
  let reference = daemon_reference () in
  let fork_daemon ~cache_dir ~journal_dir ~socket () =
    match Unix.fork () with
    | 0 ->
        (try
           Serve.Daemon.run ~cache_dir ~journal_dir ~max_conns:8 ~socket ()
         with _ -> Unix._exit 4);
        Unix._exit 0
    | pid ->
        note_pid ~scratch pid;
        pid
  in
  (* generation 1: admit a job, kill the daemon mid-flight.  The kill
     races against the job completing and [mark_done]-ing its intent;
     the job is sized to make that overwhelmingly unlikely, but under
     pathological scheduling it can still lose — retry on fresh
     directories (a warm cache would only shrink the next job). *)
  let rec gen1 attempt =
    let ddir = Filename.concat scratch (Printf.sprintf "daemon-%d" attempt) in
    (try Unix.mkdir ddir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let socket = Filename.concat ddir "chaos.sock" in
    let journal_dir = Filename.concat ddir "journal" in
    let cache_dir = Filename.concat ddir "dcache" in
    let pid1 = fork_daemon ~cache_dir ~journal_dir ~socket () in
    let line =
      Serve.Protocol.request_to_line
        (Serve.Protocol.Sweep { id = "chaos"; params = daemon_params 2 })
      ^ "\n"
    in
    let fd = raw_connect ~attempts:250 socket in
    ignore (Unix.write_substring fd line 0 (String.length line));
    let intent_seen =
      poll ~deadline_s:30.0 (fun () -> count_suffix journal_dir ".intent" > 0)
    in
    (* a seeded pause varies where inside the job the kill lands *)
    Unix.sleepf (0.002 +. (0.003 *. float_of_int (Stats.Rng.int st 16)));
    Unix.kill pid1 Sys.sigkill;
    let killed = wait_pid pid1 = Unix.WSIGNALED Sys.sigkill in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let pending_before_restart = count_suffix journal_dir ".intent" in
    if intent_seen && killed && pending_before_restart >= 1 then
      (socket, journal_dir, cache_dir, intent_seen, killed,
       pending_before_restart)
    else if attempt < 3 then gen1 (attempt + 1)
    else
      (socket, journal_dir, cache_dir, intent_seen, killed,
       pending_before_restart)
  in
  let socket, journal_dir, cache_dir, intent_seen, killed,
      pending_before_restart =
    gen1 1
  in
  (* generation 2: same directories; recovery must settle every intent *)
  let pid2 = fork_daemon ~cache_dir ~journal_dir ~socket () in
  let drained =
    poll ~deadline_s:240.0 (fun () -> count_suffix journal_dir ".intent" = 0)
  in
  let pending_after =
    if drained then 0 else count_suffix journal_dir ".intent"
  in
  let quarantined = count_suffix journal_dir ".quarantined" in
  (* the recovered job's result is observable: a fresh identical submit
     must return the reference bytes.  Recovery retired the job's wave
     journal when it answered it, so the submit evaluates again (the
     interpreted sync workload is never cached; a cached workload would
     hit, or miss where its entries were evicted) *)
  let recovered_identical =
    match Serve.Client.connect_retry ~attempts:100 socket with
    | exception _ -> false
    | c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match
              Serve.Client.request c
                (Serve.Protocol.Sweep { id = "v"; params = daemon_params 1 })
            with
            | Serve.Protocol.Report { id = "v"; report; _ } ->
                String.equal report reference
            | _ -> false
            | exception _ -> false)
  in
  (* both jobs are answered: neither may leave its waves behind *)
  let waves_left =
    let root = Filename.concat journal_dir "checkpoints" in
    List.fold_left
      (fun n key -> n + count_suffix (Filename.concat root key) ".wv")
      0
      (Store.Durable.readdir_sorted root)
  in
  Unix.kill pid2 Sys.sigterm;
  let drain_exit_ok = wait_pid pid2 = Unix.WEXITED 0 in
  let socket_removed = not (Sys.file_exists socket) in
  {
    intent_seen;
    killed;
    pending_before_restart;
    pending_after;
    quarantined;
    recovered_identical;
    waves_left;
    drain_exit_ok;
    socket_removed;
  }

(* --- leg 3: seeded corruption of every durable record kind ----------------- *)

(* Damage the file at [path] in place at seeded offsets: [kind] 0
   truncates (possibly to zero bytes), 1 flips one bit (in the header
   or the payload; a hex digit often stays a hex digit, so only the
   checksum sees it), 2 appends bytes. *)
let corrupt st ~kind path =
  let raw = Store.Durable.read_file path in
  let damaged =
    match kind with
    | 0 -> String.sub raw 0 (Stats.Rng.int st (String.length raw))
    | 1 ->
        let b = Bytes.of_string raw in
        let off = Stats.Rng.int st (Bytes.length b) in
        let bit = 1 lsl Stats.Rng.int st 8 in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor bit));
        Bytes.to_string b
    | _ -> raw ^ String.make (1 + Stats.Rng.int st 8) '0'
  in
  let oc = open_out_bin path in
  output_string oc damaged;
  close_out oc

let scrub_entries = 24
let scrub_corrupted = 8
let scrub_intents = 6

let scrub_leg ~scratch ~reference st =
  let dir = Filename.concat scratch "scrub" in
  let cache = Serve.Cache.create ~dir () in
  let key i = Digest.to_hex (Digest.string (Printf.sprintf "chaos-scrub-%d" i)) in
  (* newline-free printable payloads of varied length: a flipped header
     newline must not find a second one inside the payload *)
  let payload i =
    Printf.sprintf "metrics-%d-%s" i
      (String.init
         (8 + (i * 7 mod 64))
         (fun j -> Char.chr (33 + ((i * 13) + (j * 7)) mod 94)))
  in
  for i = 0 to scrub_entries - 1 do
    Serve.Cache.insert cache (key i) (payload i)
  done;
  (* damage AFTER the cache loaded: scrub's job is decay behind a live
     cache's back, not load-time validation *)
  let victims =
    let rec pick acc =
      if List.length acc = scrub_corrupted then acc
      else
        let i = Stats.Rng.int st scrub_entries in
        if List.mem i acc then pick acc else pick (i :: acc)
    in
    List.sort compare (pick [])
  in
  List.iter
    (fun i ->
      corrupt st ~kind:(i mod 2) (Filename.concat dir (key i ^ ".entry")))
    victims;
  let s = Serve.Cache.scrub cache in
  let undetected =
    List.fold_left
      (fun n i ->
        match Serve.Cache.lookup cache (key i) with
        | Some _ -> n + 1 (* damaged data served — the one forbidden outcome *)
        | None -> n)
      0 victims
  in
  let intact =
    List.for_all
      (fun i ->
        List.mem i victims
        ||
        match Serve.Cache.lookup cache (key i) with
        | Some p -> String.equal p (payload i)
        | None -> false)
      (List.init scrub_entries Fun.id)
  in
  (* every wave file of the reference run's journal; its cache goes too,
     so the resume really re-evaluates *)
  let ref_dir = Filename.concat scratch "ref" in
  rm_rf (Filename.concat ref_dir "cache");
  let wave_dir = Filename.concat (Filename.concat ref_dir "ckpt") leg_key in
  let waves =
    List.filter
      (fun name -> Filename.check_suffix name ".wv")
      (Store.Durable.readdir_sorted wave_dir)
  in
  List.iteri
    (fun i name -> corrupt st ~kind:(i mod 3) (Filename.concat wave_dir name))
    waves;
  let json, loaded, (waves_replayed, _) =
    leg_sweep ~fresh:false ~dir:ref_dir ~jobs:1 ()
  in
  (* damaged intents beside one intact intent *)
  let journal = Serve.Journal.create ~dir:(Filename.concat scratch "intents") in
  let line =
    Serve.Protocol.request_to_line
      (Serve.Protocol.Sweep { id = "chaos"; params = daemon_params 1 })
  in
  let record () =
    let name = Serve.Journal.fresh_name journal in
    Serve.Journal.record_intent journal { Serve.Journal.name; attempts = 1; line };
    name
  in
  let intact_name = record () in
  let damaged = List.init scrub_intents (fun _ -> record ()) in
  List.iteri
    (fun i name ->
      corrupt st ~kind:(i mod 3)
        (Filename.concat (Serve.Journal.dir journal) ("job-" ^ name ^ ".intent")))
    damaged;
  let pending =
    List.map (fun e -> e.Serve.Journal.name) (Serve.Journal.pending journal)
  in
  let among names = List.length (List.filter (fun n -> List.mem n names) damaged) in
  {
    entries = scrub_entries;
    corrupted = scrub_corrupted;
    detected = s.Serve.Cache.healed;
    undetected;
    intact;
    waves_corrupted = List.length waves;
    waves_detected = List.length waves - loaded;
    waves_replayed;
    waves_identical = String.equal json reference;
    intents_corrupted = scrub_intents;
    intents_quarantined = among (Serve.Journal.quarantined journal);
    intents_rerun = among pending;
    intent_intact = pending = [ intact_name ];
  }

(* --- the gate -------------------------------------------------------------- *)

let run ?jobs ?(seed = 0) () =
  let jobs = Sweep_check.gate_jobs jobs in
  (* the kill points, delays and corruption offsets are reproducible
     from the gate seed alone *)
  let st = Stats.Rng.create ~seed:((seed * 2_147_483_629) + 0x5EED1) in
  let scratch = scratch_dir () in
  Fun.protect ~finally:(fun () -> rm_rf scratch) @@ fun () ->
  (* uninterrupted reference: jobs=1, no checkpoint, no cache — and no
     domains spawned, so every fork below happens from a process that
     has never been multi-threaded *)
  let reference, _, _ =
    leg_sweep ~fresh:true
      ~dir:(Filename.concat scratch "ref")
      ~jobs:1 ()
  in
  (* fork-and-kill every child first (sweep legs, then the daemon
     generations); only after the last fork do the resumes spawn
     worker domains in this process *)
  let plans = [ (1, 1); (1, jobs); (jobs, 1); (jobs, jobs) ] in
  let killed_legs =
    List.mapi
      (fun i (child_jobs, resume_jobs) ->
        let dir = Filename.concat scratch (Printf.sprintf "leg%d" i) in
        (try Unix.mkdir dir 0o700
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        (* late enough that at least one 2-candidate wave is journaled,
           early enough that a ~4-wave bisect is still running *)
        let kill_after = 3 + Stats.Rng.int st 4 in
        let killed =
          fork_killed_sweep ~scratch ~dir ~jobs:child_jobs ~kill_after
        in
        (child_jobs, resume_jobs, dir, kill_after, killed))
      plans
  in
  let daemon = daemon_leg ~scratch st in
  let sweeps =
    List.map
      (fun (child_jobs, resume_jobs, dir, kill_after, killed) ->
        (* the killed run's cache must hold only whole entries: count
           load-time rejects plus a full scrub over the survivors *)
        let torn_entries =
          let c = Serve.Cache.create ~dir:(Filename.concat dir "cache") () in
          let loaded = (Serve.Cache.stats c).Serve.Cache.corrupt in
          loaded + (Serve.Cache.scrub c).Serve.Cache.healed
        in
        let json, waves_journaled, (replayed_waves, replayed_candidates) =
          leg_sweep ~fresh:false ~dir ~jobs:resume_jobs ()
        in
        {
          child_jobs;
          resume_jobs;
          kill_after;
          killed;
          waves_journaled;
          replayed_waves;
          replayed_candidates;
          torn_entries;
          identical = String.equal json reference;
        })
      killed_legs
  in
  let scrub = scrub_leg ~scratch ~reference st in
  { jobs; seed; result = { sweeps; daemon; scrub } }

let sweep_leg_passed (l : sweep_leg) =
  l.killed && l.waves_journaled >= 1 && l.replayed_waves >= 1
  && l.torn_entries = 0 && l.identical

let daemon_passed (d : daemon_leg) =
  d.intent_seen && d.killed
  && d.pending_before_restart >= 1
  && d.pending_after = 0 && d.quarantined = 0 && d.recovered_identical
  && d.waves_left = 0
  && d.drain_exit_ok && d.socket_removed

let scrub_passed (s : scrub_leg) =
  s.detected = s.corrupted && s.undetected = 0 && s.intact

let waves_passed (s : scrub_leg) =
  s.waves_corrupted >= 1
  && s.waves_detected = s.waves_corrupted
  && s.waves_replayed = 0 && s.waves_identical

let intents_passed (s : scrub_leg) =
  s.intents_quarantined = s.intents_corrupted
  && s.intents_rerun = 0 && s.intent_intact

let passed t =
  List.for_all sweep_leg_passed t.result.sweeps
  && daemon_passed t.result.daemon
  && scrub_passed t.result.scrub
  && waves_passed t.result.scrub
  && intents_passed t.result.scrub

let pp_report ppf t =
  let r = t.result in
  let verdict b = if b then "ok" else "FAILED" in
  Format.fprintf ppf "chaos gate (seed %d, jobs %d):@." t.seed t.jobs;
  Format.fprintf ppf "  sweep SIGKILL + resume:@.";
  List.iter
    (fun l ->
      Format.fprintf ppf
        "    killed at eval %d (jobs %d) → resumed (jobs %d): %s (%d wave(s) \
         journaled, %d replayed, %d torn cache entr%s)@."
        l.kill_after l.child_jobs l.resume_jobs
        (verdict (sweep_leg_passed l))
        l.waves_journaled l.replayed_waves l.torn_entries
        (if l.torn_entries = 1 then "y" else "ies"))
    r.sweeps;
  let d = r.daemon in
  Format.fprintf ppf "  daemon SIGKILL + restart:@.";
  Format.fprintf ppf "    intent journaled before kill: %s@."
    (verdict (d.intent_seen && d.killed && d.pending_before_restart >= 1));
  Format.fprintf ppf
    "    recovery settled every job:    %s (%d pending, %d quarantined)@."
    (verdict (d.pending_after = 0 && d.quarantined = 0))
    d.pending_after d.quarantined;
  Format.fprintf ppf "    recovered report byte-equal:   %s@."
    (verdict d.recovered_identical);
  Format.fprintf ppf "    answered jobs' waves retired:  %s (%d wave file(s) left)@."
    (verdict (d.waves_left = 0))
    d.waves_left;
  Format.fprintf ppf "    SIGTERM drain + socket gone:   %s@."
    (verdict (d.drain_exit_ok && d.socket_removed));
  let s = r.scrub in
  Format.fprintf ppf
    "  cache scrub: %s (%d/%d corrupted entries detected, %d served \
     corrupt, clean entries %s)@."
    (verdict (scrub_passed s))
    s.detected s.corrupted s.undetected
    (if s.intact then "intact" else "DAMAGED");
  Format.fprintf ppf
    "  wave records: %s (%d/%d damaged waves detected, %d replayed, resumed \
     report %s)@."
    (verdict (waves_passed s))
    s.waves_detected s.waves_corrupted s.waves_replayed
    (if s.waves_identical then "byte-equal" else "DIFFERENT");
  Format.fprintf ppf
    "  job intents: %s (%d/%d damaged intents quarantined, %d re-run, intact \
     intent %s)@."
    (verdict (intents_passed s))
    s.intents_quarantined s.intents_corrupted s.intents_rerun
    (if s.intent_intact then "pending" else "LOST")
