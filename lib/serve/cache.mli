(** Content-addressed evaluation store: a durable, bounded, domain-safe
    [(string → string)] table memoizing candidate evaluations across
    sweeps, processes and daemon jobs.

    Keys are opaque (in practice {!Refine.Eval.cache_key} digests) and
    payloads are opaque (in practice {!Codec.encode}d metrics).  With
    [?dir], each entry persists as one [<key>.entry] file in the one
    record frame of {!Store.Durable.write_record} (magic [fxcache2]);
    files the frame's checked reader refuses are deleted, counted as
    [corrupt], and treated as misses (healed on read, never served as
    truth; {!scrub} applies the same check to every entry eagerly).  All operations are
    mutex-guarded, so one cache serves every {!Sweep.Pool} worker
    domain and every {!Daemon} connection thread concurrently. *)

type t

(** Counter snapshot (monotonic over the value's lifetime, except
    [entries] which is the current table size). *)
type stats = {
  hits : int;  (** lookups answered (memory or disk) *)
  misses : int;  (** lookups answered empty *)
  inserts : int;  (** new keys stored (duplicates are no-ops) *)
  evictions : int;  (** entries dropped by the [max_entries] bound *)
  corrupt : int;  (** damaged entry files detected and deleted *)
  entries : int;  (** current in-memory index size *)
}

(** [create ?dir ?max_entries ()] — a fresh cache.  [dir] enables
    persistence: the directory is created if missing and every
    well-formed [*.entry] file in it is adopted (corrupt ones are
    deleted and counted).  [max_entries] bounds the table, evicting by
    CLOCK, on disk too: each hit earns its entry a reference credit (at
    most 3), and the eviction scan walks the entries oldest-inserted
    first, sending one with credit back to the end for one credit and
    evicting the first without.  Credits are not persisted: adopted
    entries start without.  Raises [Invalid_argument] on
    [max_entries < 1]. *)
val create : ?dir:string -> ?max_entries:int -> unit -> t

(** [lookup t key] — the stored payload, or [None].  A key absent from
    memory but present (and well-formed) on disk — e.g. written by
    another process sharing [dir] — is adopted and counts as a hit. *)
val lookup : t -> string -> string option

(** [insert t key payload] — store a new entry (and persist it when the
    cache has a directory and the key is a safe file name).  Inserting
    an existing key is a no-op: under content addressing, equal keys
    mean equal payloads. *)
val insert : t -> string -> string -> unit

(** Current counter snapshot. *)
val stats : t -> stats

(** Current in-memory index size (= [(stats t).entries]). *)
val entry_count : t -> int

(** {!scrub} result: [scanned] entry files examined, [ok] verified
    intact, [healed] found damaged — deleted, dropped from the index,
    and counted in [stats.corrupt].  [scanned = ok + healed]. *)
type scrub = { scanned : int; ok : int; healed : int }

(** [scrub t] — eager full-directory integrity pass: re-read every
    [*.entry] file from disk through the checked frame, healing
    failures as misses.  Catches bit-rot that happened after
    load (lookups served from memory would never re-read the file).
    Memory-only caches scan nothing. *)
val scrub : t -> scrub

(** One-line human rendering of a {!stats} snapshot. *)
val pp_stats : Format.formatter -> stats -> unit
