(** Crash-safe wave journal — checkpoint/resume for {!Pool} sweeps.

    A checkpoint records every {e completed} wave of a sweep to its own
    file under [dir/key/], in the one record frame of
    {!Store.Durable.write_record} (writer-unique temp file + [fsync] +
    rename + directory [fsync], and a length and CRC-32 checked on every
    read), so a [SIGKILL] — or a power cut — at any instant leaves
    either the old journal or the new one, never a torn record, and
    concurrent writers of one wave never collide.  On resume,
    {!Pool.run} asks {!lookup} before evaluating each wave: a journaled
    wave recorded from exactly the same candidate list is replayed (its
    metrics are {!Store.Monitor} payloads, the cache's format, which
    decode bit-identically), so the generator's decisions — and
    therefore the final report — are byte-identical to an uninterrupted
    run at any [jobs].  The chaos gate ({!Oracle.Chaos_check}) SIGKILLs
    real sweeps mid-wave to enforce this.

    Quarantined candidates journal too (printed error + attempt count),
    so a resumed partial report keeps its failure list intact.

    A damaged, truncated or old-format wave file is treated as "not
    journaled" and the wave is simply re-evaluated — corruption costs
    time, never correctness.  A candidate list that differs (the sweep
    was restarted with different parameters under the same key, or the
    journal belongs to an older generator) is likewise a clean miss. *)

(** One wave's worth of evaluated candidates, exactly as {!Pool}
    produced them: [Ok metrics], or [Error (printed_exception,
    attempts)] for a quarantined candidate. *)
type outcome = (Candidate.t * (Refine.Eval.metrics, string * int) result) list

type t

(** [sweep_key ~workload ~strategy ~context params] — stable hex digest
    identifying a sweep configuration; used as the journal subdirectory
    name so unrelated sweeps sharing one [--checkpoint] directory never
    collide.  [context] should name the evaluator version (and fault
    plan, if any); [params] is an ordered association list of the
    remaining knobs (f range, seeds, budget, …). *)
val sweep_key :
  workload:string ->
  strategy:string ->
  context:string ->
  (string * string) list ->
  string

(** [create ~dir ~key ()] — open the journal at [dir/key/], creating
    directories as needed.  With [resume:true] (default [false]) every
    well-formed wave file already present is loaded for replay; without
    it, stale wave files under this key are cleared so the run starts
    fresh.  Raises [Invalid_argument] if [key] is not a safe file
    name (the digests {!sweep_key} produces always are). *)
val create : ?resume:bool -> dir:string -> key:string -> unit -> t

(** [retire ~dir ~key] — delete the journal {!create} opens at
    [dir/key/]: its wave files and any temp files left by an
    interrupted write, then the directory itself.  A missing journal is
    not an error; a directory that still holds other files is kept.
    The daemon retires a job's journal once the job is answered;
    [fxrefine sweep --checkpoint] never does, so its journal stays for
    [--resume].  Raises [Invalid_argument] if [key] is not a safe file
    name. *)
val retire : dir:string -> key:string -> unit

(** The journal's keyed subdirectory ([dir/key]). *)
val dir : t -> string

(** Number of waves currently journaled (loaded + recorded). *)
val waves : t -> int

(** [(waves, candidates)] replayed by {!lookup} so far — what resume
    actually skipped. *)
val replayed : t -> int * int

(** [lookup t ~wave candidates] — the journaled outcomes for [wave], if
    a record exists {e and} was recorded from a candidate list equal to
    [candidates] (compared by digest); [None] means the caller must evaluate (and should
    {!record} the result). *)
val lookup : t -> wave:int -> Candidate.t list -> outcome option

(** [record t ~wave outcomes] — durably journal a completed wave
    (atomic replace of any previous record for [wave]).  Raises
    [Invalid_argument] on counter-carrying metrics, which cannot
    round-trip ({!Pool.run} rejects the combination up front). *)
val record : t -> wave:int -> outcome -> unit
