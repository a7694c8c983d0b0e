(** The [fxrefine serve] daemon: a long-running supervised process
    executing sweep jobs over a Unix-domain socket, all jobs sharing
    one content-addressed {!Cache}.

    Each accepted connection gets its own [Thread] (threads multiplex
    fine with the pool's worker {e domains}; a sweep job spawns domains
    from whichever thread runs it), reading line-delimited
    {!Protocol} requests and answering one response line per request.
    Connections are independent; concurrent sweep jobs interleave
    safely because every shared structure — the cache, the stats, the
    journal — is mutex- or rename-guarded, and a job's report depends
    only on its parameters (the determinism contract), not on
    scheduling.

    Crash safety (with [?journal_dir]): every admitted sweep job is
    written ahead to a {!Journal} intent before it executes and marked
    done once it has a definite answer (report, deterministic error or
    timeout).  A daemon that was SIGKILLed therefore leaves one intent
    per interrupted job, and the next daemon's recovery pass re-runs
    each — resuming its {!Sweep.Checkpoint} journal, so completed waves
    replay instead of re-evaluating — with capped exponential backoff
    across daemon generations, quarantining jobs whose retry budget is
    spent.  The chaos gate SIGKILLs a live daemon mid-job to enforce
    this.

    A job's wave journal lives exactly as long as its intent: it is
    kept while the job is in flight, drained or interrupted, and
    retired ({!Sweep.Checkpoint.retire}) once the job has its definite
    answer, {e before} [mark_done] — so a kill between the two leaves a
    pending intent to re-run, never an orphaned journal.  Identical
    jobs share a key, so the daemon counts the holders of each key (the
    jobs in flight and the recovered intents not yet answered) and the
    last one out retires it.  The durable store is thus the cache,
    bounded by [max_entries], plus the journals of unanswered jobs.  A
    resubmitted job is a cache hit (a miss where its entries were
    evicted), not a journal replay; a timed-out job resubmitted starts
    its waves over, though its cached candidates still hit.

    Backpressure: at most [max_conns] concurrent connections; the
    listener's accept backlog is bounded to the same figure, and a
    connection over the limit receives one structured [busy] response
    and is closed — never an unbounded thread pile-up.

    Graceful drain: [SIGTERM] stops accepting, lets every in-flight
    job finish its current wave (checkpointed as always), answers it
    with a [draining] error (the intent survives for the next daemon),
    EOFs idle readers, waits for all connection threads, then exits.

    Degradation mirrors the rest of the engine: a malformed line yields
    an [error] response (the connection stays up), an unknown workload
    or strategy yields an [error] response, a job that raises is caught
    and reported, and a [timeout_s] overrun — checked between waves,
    like the pool's budget — quarantines just that job.  Only
    [shutdown] or [SIGTERM] stops the daemon. *)

(* Raised inside a job's [on_wave] when its deadline passed. *)
exception Timeout

(* Raised inside a job's [on_wave] when the daemon is draining: the
   current wave completed (and was checkpointed), stop cleanly. *)
exception Drained

type t = {
  cache : Cache.t;
  journal : Journal.t option;
  checkpoint_dir : string option;  (** sweep-wave journals, under the job journal *)
  holds : (string, int) Hashtbl.t;
      (** per checkpoint key: jobs in flight plus recovered intents not
          yet answered *)
  holds_mutex : Mutex.t;
  listener : Unix.file_descr;
  stopping : bool Atomic.t;  (** a [shutdown] request arrived *)
  draining : bool Atomic.t;  (** SIGTERM arrived *)
  active : int Atomic.t;  (** live connection threads *)
  max_conns : int;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_mutex : Mutex.t;
  conns_done : Condition.t;
  log : string -> unit;
}

let hold_locked t key =
  Hashtbl.replace t.holds key
    (1 + Option.value (Hashtbl.find_opt t.holds key) ~default:0)

(* The sweep's wave journal, keyed by {!Protocol.checkpoint_key}, so a
   job resubmitted with different parallelism still resumes it, and
   held by the job until {!release}.  Every daemon checkpoint is opened
   here, under the lock {!release} retires under, so a journal is never
   opened while its last holder deletes it. *)
let checkpoint_of t (p : Protocol.sweep_params) =
  match t.checkpoint_dir with
  | None -> None
  | Some dir ->
      let key = Protocol.checkpoint_key p in
      (* two concurrent identical jobs may share a key: their wave
         files are byte-identical by determinism, and writes are atomic
         renames, so the race is benign *)
      Mutex.protect t.holds_mutex (fun () ->
          let cp = Sweep.Checkpoint.create ~resume:true ~dir ~key () in
          hold_locked t key;
          Some (key, cp))

(* Drop one hold on [key]; the last one retires the key's wave journal.
   A holder releases only once its job has a definite answer, and
   before [Journal.mark_done]; a drained job keeps its hold, since its
   intent stays pending. *)
let release t key =
  match t.checkpoint_dir with
  | None -> ()
  | Some dir ->
      Mutex.protect t.holds_mutex (fun () ->
          match Hashtbl.find_opt t.holds key with
          | Some n when n > 1 -> Hashtbl.replace t.holds key (n - 1)
          | Some _ | None ->
              Hashtbl.remove t.holds key;
              Sweep.Checkpoint.retire ~dir ~key)

let run_sweep_job t ~id (p : Protocol.sweep_params) =
  match Protocol.sweep_of_params p with
  | Result.Error message -> Protocol.Error { id; message }
  | Ok (workload, generator) -> (
      let deadline =
        Option.map (fun t -> Unix.gettimeofday () +. t) p.Protocol.timeout_s
      in
      let on_wave _progress =
        (match deadline with
        | Some d when Unix.gettimeofday () > d -> raise Timeout
        | _ -> ());
        if Atomic.get t.draining then raise Drained
      in
      let held = checkpoint_of t p in
      let answered () = Option.iter (fun (key, _) -> release t key) held in
      let s0 = Cache.stats t.cache in
      match
        Sweep.Pool.run ~jobs:p.Protocol.jobs ?budget:p.Protocol.budget
          ~cache:(Codec.eval_cache t.cache)
          ?checkpoint:(Option.map snd held) ~on_wave ~workload ~generator ()
      with
      | report ->
          answered ();
          let s1 = Cache.stats t.cache in
          Protocol.Report
            {
              id;
              report = Sweep.Report.to_json report;
              hits = s1.Cache.hits - s0.Cache.hits;
              misses = s1.Cache.misses - s0.Cache.misses;
            }
      | exception Timeout ->
          answered ();
          Protocol.Error
            { id; message = "timeout: job exceeded its wall-clock budget" }
      | exception Drained ->
          (* escapes to the journaled wrapper: the intent must
             survive so the next daemon re-runs this job, and so must
             its waves *)
          raise Drained
      | exception exn ->
          answered ();
          Protocol.Error { id; message = Printexc.to_string exn })

let drained_error id =
  Protocol.Error
    {
      id;
      message =
        "draining: daemon is shutting down; completed waves are \
         checkpointed, resubmit after restart";
    }

(* Write-ahead execution: intent before the job runs, [mark_done] once
   it has a definite answer.  A drain leaves the intent in place. *)
let execute_sweep t ~id p =
  match t.journal with
  | None -> ( try run_sweep_job t ~id p with Drained -> drained_error id)
  | Some j -> (
      let name = Journal.fresh_name j in
      let line = Protocol.request_to_line (Protocol.Sweep { id; params = p }) in
      Journal.record_intent j { Journal.name; attempts = 1; line };
      match run_sweep_job t ~id p with
      | resp ->
          Journal.mark_done j ~name;
          resp
      | exception Drained -> drained_error id)

(* [response, stop?] — [stop = true] only for shutdown. *)
let handle_request t = function
  | Protocol.Ping { id } -> (Protocol.Pong { id }, false)
  | Protocol.Stats { id } ->
      (Protocol.Stats_reply { id; stats = Cache.stats t.cache }, false)
  | Protocol.Shutdown { id } -> (Protocol.Bye { id }, true)
  | Protocol.Sweep { id; params } -> (execute_sweep t ~id params, false)

(* --- recovery ------------------------------------------------------------ *)

(* Recovery admits a journaled job at most [retries] times across daemon
   generations, and sleeps [backoff_s] before re-running it, doubled per
   recorded attempt and capped at 2 s. *)
let retries = 3
let backoff_s = 0.05

(* The intents the previous daemon left behind, each sweep holding its
   checkpoint key until recovery answers it: a live identical job that
   finishes first must not retire the waves the re-run will replay.
   Taken before the daemon accepts connections. *)
let pending_jobs t =
  match t.journal with
  | None -> []
  | Some j ->
      List.map
        (fun (e : Journal.entry) ->
          let req = Protocol.request_of_line e.Journal.line in
          (match req with
          | Some (Protocol.Sweep { params; _ }) ->
              Mutex.protect t.holds_mutex (fun () ->
                  hold_locked t (Protocol.checkpoint_key params))
          | Some _ | None -> ());
          (e, req))
        (Journal.pending j)

(* Re-run every intent the previous daemon left behind.  Attempts
   accumulate in the write-ahead record across daemon generations, so a
   poisoned job that kills the daemon every time it runs is quarantined
   after [retries] total admissions instead of crash-looping forever.
   An intent's hold on its key is released once it is answered or
   quarantined, before its intent goes. *)
let recover_jobs t pending =
  match t.journal with
  | None -> ()
  | Some j ->
      if pending <> [] then
        t.log
          (Printf.sprintf "recovery: %d interrupted job(s) journaled"
             (List.length pending));
      List.iter
        (fun ((e : Journal.entry), req) ->
          if not (Atomic.get t.draining || Atomic.get t.stopping) then
            match req with
            | Some (Protocol.Sweep { id; params }) -> (
                let key = Protocol.checkpoint_key params in
                if e.Journal.attempts >= retries then begin
                  release t key;
                  Journal.quarantine j e
                    ~reason:
                      (Printf.sprintf "retry budget exhausted (%d attempts)"
                         e.Journal.attempts);
                  t.log
                    (Printf.sprintf "recovery: job %s quarantined (%d attempts)"
                       e.Journal.name e.Journal.attempts)
                end
                else begin
                  (* capped exponential backoff, keyed to how often this
                     job has already been admitted *)
                  Unix.sleepf
                    (Float.min
                       (backoff_s *. (2.0 ** float_of_int e.Journal.attempts))
                       2.0);
                  let e = { e with Journal.attempts = e.Journal.attempts + 1 } in
                  Journal.record_intent j e;
                  match run_sweep_job t ~id params with
                  | _resp ->
                      release t key;
                      Journal.mark_done j ~name:e.Journal.name;
                      t.log
                        (Printf.sprintf "recovery: job %s re-run to completion"
                           e.Journal.name)
                  | exception Drained -> ()
                end)
            | Some _ | None ->
                Journal.quarantine j e ~reason:"intent is not a sweep request";
                t.log
                  (Printf.sprintf "recovery: job %s quarantined (unparsable)"
                     e.Journal.name))
        pending

(* --- connections --------------------------------------------------------- *)

let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send resp =
    output_string oc (Protocol.response_to_line resp);
    output_char oc '\n';
    flush oc
  in
  let rec serve_lines () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
        let stop =
          match Protocol.request_of_line line with
          | None ->
              send
                (Protocol.Error { id = ""; message = "malformed request line" });
              false
          | Some req ->
              let resp, stop = handle_request t req in
              send resp;
              stop
        in
        if stop then begin
          t.log "shutdown requested";
          Atomic.set t.stopping true;
          (* unblock the accept loop: [shutdown] on the listening
             socket makes the pending [accept] raise (EINVAL) — unlike
             [close], which on Linux leaves a blocked [accept] blocked
             forever *)
          try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ()
        end
        else if Atomic.get t.draining then ()
          (* the response above was flushed; stop reading so drain can
             finish instead of blocking on an idle client *)
        else serve_lines ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    serve_lines

(* One busy line straight onto the raw fd — the connection was never
   admitted, so no thread, no channel, no request read. *)
let reject_busy t fd =
  let line =
    Protocol.response_to_line
      (Protocol.Busy
         { id = ""; active = Atomic.get t.active; limit = t.max_conns })
    ^ "\n"
  in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let spawn_connection t fd =
  Atomic.incr t.active;
  Mutex.lock t.conns_mutex;
  Hashtbl.replace t.conns fd ();
  Mutex.unlock t.conns_mutex;
  ignore
    (Thread.create
       (fun () ->
         Fun.protect
           ~finally:(fun () ->
             Mutex.lock t.conns_mutex;
             Hashtbl.remove t.conns fd;
             Atomic.decr t.active;
             Condition.broadcast t.conns_done;
             Mutex.unlock t.conns_mutex)
           (fun () -> handle_connection t fd))
       ())

(* Drain/shutdown barrier: EOF every idle reader (writes — pending
   responses — still go through), then wait until every connection
   thread has finished.  In-flight jobs complete their current wave
   first (checkpointed), answered with a [draining] error. *)
let await_connections t =
  Mutex.lock t.conns_mutex;
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  while Atomic.get t.active > 0 do
    Condition.wait t.conns_done t.conns_mutex
  done;
  Mutex.unlock t.conns_mutex

let run ?cache_dir ?max_entries ?journal_dir ?(max_conns = 64)
    ?(log = fun _ -> ()) ~socket () =
  if max_conns < 1 then invalid_arg "Serve.Daemon.run: max_conns < 1";
  let cache = Cache.create ?dir:cache_dir ?max_entries () in
  let journal = Option.map (fun dir -> Journal.create ~dir) journal_dir in
  let checkpoint_dir =
    Option.map (fun dir -> Filename.concat dir "checkpoints") journal_dir
  in
  (* a stale socket file from a previous run would make [bind] fail *)
  (match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink socket
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let t =
    {
      cache;
      journal;
      checkpoint_dir;
      holds = Hashtbl.create 16;
      holds_mutex = Mutex.create ();
      listener;
      stopping = Atomic.make false;
      draining = Atomic.make false;
      active = Atomic.make 0;
      max_conns;
      conns = Hashtbl.create 16;
      conns_mutex = Mutex.create ();
      conns_done = Condition.create ();
      log;
    }
  in
  (* SIGTERM = graceful drain.  The handler body runs as ordinary OCaml
     code at a safe point: flag + listener shutdown only, no locks. *)
  let prev_sigterm =
    match
      Sys.signal Sys.sigterm
        (Sys.Signal_handle
           (fun _ ->
             Atomic.set t.draining true;
             try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ()))
    with
    | h -> Some h
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  Fun.protect
    ~finally:(fun () ->
      (match prev_sigterm with
      | Some h -> ( try Sys.set_signal Sys.sigterm h with _ -> ())
      | None -> ());
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX socket);
      Unix.listen listener (min max_conns 128);
      log (Printf.sprintf "listening on %s" socket);
      (* recovery runs beside the accept loop so a restarted daemon
         serves fresh traffic while it re-runs interrupted jobs; their
         keys are held before the first connection is accepted *)
      let pending = pending_jobs t in
      let recovery = Thread.create (fun () -> recover_jobs t pending) () in
      let rec accept_loop () =
        match Unix.accept t.listener with
        | fd, _addr ->
            if Atomic.get t.stopping || Atomic.get t.draining then (
              try Unix.close fd with Unix.Unix_error _ -> ())
            else if Atomic.get t.active >= t.max_conns then reject_busy t fd
            else spawn_connection t fd;
            accept_loop ()
        | exception Unix.Unix_error _
          when Atomic.get t.stopping || Atomic.get t.draining ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      in
      accept_loop ();
      if Atomic.get t.draining then log "draining: waiting for in-flight jobs";
      await_connections t;
      Thread.join recovery;
      log (if Atomic.get t.draining then "drained" else "stopped"))
