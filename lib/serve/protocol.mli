(** Typed requests/responses of the daemon's job protocol and their
    line codecs (one flat {!Trace.Json} object per line).  Every
    request carries a caller-chosen [id] the daemon echoes back, so
    clients can correlate multiplexed jobs. *)

(** Parameters of a sweep job — the [fxrefine sweep] surface by name,
    plus a wall-clock timeout the daemon checks between waves. *)
type sweep_params = {
  workload : string;  (** built-in workload name, e.g. ["fir"] *)
  strategy : string;  (** [grid], [bisect] or [pareto] *)
  f_min : int;
  f_max : int;
  seeds : int;  (** stimulus seeds [0..N-1], like the CLI *)
  jobs : int;  (** worker domains for this job *)
  budget : int option;  (** cap on evaluated candidates *)
  target_db : float;  (** bisect's SQNR target *)
  timeout_s : float option;  (** wall-clock limit, checked between waves *)
}

type request =
  | Ping of { id : string }  (** liveness probe *)
  | Stats of { id : string }  (** cache counter snapshot *)
  | Shutdown of { id : string }  (** stop accepting; daemon exits *)
  | Sweep of { id : string; params : sweep_params }

type response =
  | Pong of { id : string }
  | Stats_reply of { id : string; stats : Cache.stats }
  | Bye of { id : string }  (** shutdown acknowledged *)
  | Report of { id : string; report : string; hits : int; misses : int }
      (** [report] is the canonical sweep JSON ({!Sweep.Report.to_json});
          [hits]/[misses] are the shared cache's counter deltas observed
          across this job (approximate under concurrent jobs) *)
  | Error of { id : string; message : string }
  | Busy of { id : string; active : int; limit : int }
      (** structured backpressure: the daemon is at its [max_conns]
          connection limit and admitted nothing — [active]/[limit] let
          the client report or back off and retry; sent with [id = ""]
          since no request line was read *)

(** [checkpoint_key p] — the {!Sweep.Checkpoint} key of the sweep [p]
    describes: a digest of everything that determines its report
    byte-for-byte (workload, strategy, range, seeds, budget, target and
    the evaluator context).  [jobs] and [timeout_s] are excluded — they
    affect scheduling and wall-clock, never results — so a sweep
    resumed with different parallelism or limit finds its journal.  The
    daemon, [fxrefine sweep --checkpoint] and the chaos gate all key
    their journals with it. *)
val checkpoint_key : sweep_params -> string

(** [sweep_of_params ?strategies p] — the one validation of a sweep
    request, shared by the daemon, [fxrefine sweep] and
    [fxrefine faultsim]: the named workload and the generator [p]
    describes, or the reason [p] is invalid.  Checked in order: an
    unknown workload, [f_min > f_max], [seeds < 1], [jobs < 1], a
    [budget] below 1, a [target_db] that is not finite, a [timeout_s]
    that is not a positive finite number, then a strategy outside
    [strategies] (default [grid], [bisect], [pareto]).  The messages
    are the daemon's [error] replies. *)
val sweep_of_params :
  ?strategies:string list ->
  sweep_params ->
  (Sweep.Workload.t * Sweep.Generator.t, string) result

(** One-line renderings (no trailing newline). *)

val request_to_line : request -> string
val response_to_line : response -> string

(** Strict parsers; [None] on malformed lines or unknown [op]s.  A
    line without an [id] field gets [""] (the daemon still answers);
    an [id] that is present but not a string makes the line [None].
    A sweep's optional [jobs], [budget], [target_db] and [timeout_s]
    likewise take their defaults only when absent: present with a
    value that is not a JSON number of their type, the line is
    [None].  A request carrying a field its [op] does not define (a
    misspelled [budgett], a [workload] on a [ping]) is [None] too,
    never the request without it. *)

val request_of_line : string -> request option
val response_of_line : string -> response option
