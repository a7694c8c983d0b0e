(** The [fxrefine serve] daemon: executes sweep jobs over a Unix-domain
    socket, every job sharing one content-addressed {!Cache}.  One
    thread per connection, line-delimited {!Protocol} messages, one
    response per request.  Failures degrade like the rest of the
    engine: malformed lines, unknown workloads/strategies, raised
    exceptions and [timeout_s] overruns each quarantine the single
    request into an [error] response; the daemon itself only stops on a
    [shutdown] request or a [SIGTERM] drain.

    With [?journal_dir] the daemon is {e supervised}: every admitted
    sweep job writes a {!Journal} intent before executing and runs with
    a {!Sweep.Checkpoint} wave journal (under
    [journal_dir/checkpoints]), so a SIGKILLed daemon forgets nothing —
    the next [run] over the same directory re-runs each interrupted job
    (resuming its completed waves, with capped exponential backoff
    accumulated across daemon generations) or quarantines it once its
    retry budget is spent.  The chaos gate enforces this with real
    kills.  A job's wave journal lives as long as its intent: the last
    job holding its key deletes it once answered (report, error or
    timeout), before the intent goes, so the durable store is the
    bounded cache plus the journals of unanswered jobs. *)

(** [run ~socket ()] binds the Unix-domain socket at [socket] (a stale
    socket file is unlinked first), serves until a [shutdown] request
    or a [SIGTERM], then removes the socket file and returns.

    [cache_dir]/[max_entries] configure the shared {!Cache}.

    [journal_dir] enables the write-ahead job journal and per-job sweep
    checkpoints described above; without it the daemon is stateless
    across restarts (as before).

    [max_conns] (default 64) bounds concurrent connections {e and} the
    accept backlog; a connection over the limit receives one structured
    [busy] response and is closed — backpressure, not thread pile-up.

    Recovery admits a journaled job at most 3 times in total before it
    quarantines it, and waits 0.05 s before each re-run, doubled per
    recorded attempt and capped at 2 s.

    [log] receives one-line lifecycle messages (default: silent).

    [SIGTERM] triggers a graceful drain: stop accepting, let in-flight
    jobs finish their current wave (checkpointed), answer them with a
    [draining] error whose intents survive for the next daemon, wait
    for every connection thread, restore the previous handler, exit.
    The handler is process-global while [run] is live.

    Raises [Invalid_argument] on [max_conns < 1].
    Blocking — callers wanting a background daemon run it in their own
    thread or process. *)
val run :
  ?cache_dir:string ->
  ?max_entries:int ->
  ?journal_dir:string ->
  ?max_conns:int ->
  ?log:(string -> unit) ->
  socket:string ->
  unit ->
  unit
