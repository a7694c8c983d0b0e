(** Chaos gate — the oracle for crash safety, enforced with real
    [SIGKILL]s ([fxrefine check --chaos]).

    Three legs: forked checkpointed sweeps are killed at seeded
    evaluation indices and resumed to byte-identical reports (crossing
    [jobs] between killer and resumer); a journaled daemon is killed
    mid-job and its restart must re-run every write-ahead intent and
    answer an identical resubmit with the reference bytes, leaving no
    wave file behind once both are answered, before draining cleanly on
    [SIGTERM]; and durable records damaged at
    seeded offsets — cache entries, a sweep's wave files, daemon
    intents — must each be detected: {!Serve.Cache.scrub} heals every
    damaged entry and no lookup serves one, no damaged wave is
    replayed (the resumed report is byte-identical to the reference),
    and every damaged intent is quarantined, none re-run.

    Children's pids are appended to a [pids] file inside the gate's
    [fxchaos-*] scratch directory so the caller's cleanup trap can
    reap orphans if the gate itself dies. *)

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

(** Run the gate.  [jobs] (default: derived from the host, at least 2)
    is the parallel leg's worker count; [seed] (default 0) drives every
    kill point, delay and corruption offset.  Forks several children
    and runs two short daemon generations; wall-clock is a few
    seconds.  The caller must be effectively single-threaded (gate
    processes fork). *)
val run : ?jobs:int -> ?seed:int -> unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
