(** Write-ahead job journal — the daemon's crash ledger.

    Before a journaled job starts executing, the daemon records an
    {e intent} (the verbatim request line plus an attempt count) as
    [job-<name>.intent], atomically and durably, in the one checked
    record frame of {!Store.Durable.write_record}; the file is removed
    when the job completes with a definite answer.  A daemon that was
    SIGKILLed therefore leaves one intent file per interrupted job, and
    the next daemon's recovery pass re-runs each (bumping [attempts],
    with capped exponential backoff) or — once the retry budget is
    spent, or the record is damaged or unparsable — replaces it with
    [job-<name>.quarantined] with a [reason] line.  Every journaled job
    ends in exactly one of: completed, re-run, quarantined.  Never
    silently forgotten. *)

(** One journaled job: [name] keys the file, [attempts] counts
    executions admitted so far (including the interrupted ones),
    [line] is the verbatim {!Protocol} request line. *)
type entry = { name : string; attempts : int; line : string }

type t

(** Open (and create if needed) the journal directory. *)
val create : dir:string -> t

val dir : t -> string

(** A journal-unique job name ([<pid>-<seq>]); the pid distinguishes
    daemon generations, so recovered and fresh jobs never collide, and
    the sequence is process-wide, so neither do the jobs of two
    journals over one directory. *)
val fresh_name : t -> string

(** Durably write (or rewrite, when bumping [attempts]) the intent
    record.  Must happen {e before} the execution it announces — that
    ordering is the write-ahead guarantee.  Raises [Invalid_argument]
    on a name that is not a safe file name ({!fresh_name}'s always
    are). *)
val record_intent : t -> entry -> unit

(** The job completed with a definite answer (report {e or}
    deterministic error): drop its intent. *)
val mark_done : t -> name:string -> unit

(** Give up on the job: persist the record plus [reason] as
    [job-<name>.quarantined] and drop the intent. *)
val quarantine : t -> entry -> reason:string -> unit

(** Interrupted jobs, oldest first.  Intent files the frame refuses
    (damage, an old format) or whose payload does not parse are
    quarantined on the spot (raw bytes preserved) rather than re-run
    blind or deleted. *)
val pending : t -> entry list

(** Names of quarantined jobs. *)
val quarantined : t -> string list
