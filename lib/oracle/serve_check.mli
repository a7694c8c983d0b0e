(** Cache-transparency gate — oracle for the content-addressed
    evaluation cache and the serve daemon.

    Runs one FIR grid sweep four ways (no cache, cold persistent
    cache, warm cache over the same directory, warm cache at
    [jobs=N]) and holds every canonical JSON report to byte equality;
    the warm run must additionally answer {e every} candidate from the
    persisted entries.  A bounded leg repeats the cold and warm runs
    through a cache of fewer entries than candidates, which must evict
    yet stay byte-equal, its directory holding exactly the live
    entries' files.  A real daemon round trip (ping → sweep → stats
    → shutdown over a Unix socket) must return that same byte-identical
    report.  Wired into [fxrefine check --serve]. *)

type result = {
  candidates : int;  (** evaluated per sweep *)
  cold_transparent : bool;  (** no-cache vs cold-cache JSON byte-equal *)
  warm_identical : bool;  (** cold vs warm JSON byte-equal *)
  jobs_identical : bool;  (** warm [jobs=1] vs warm [jobs=N] byte-equal *)
  warm_hits : int;  (** cache hits observed by the warm run *)
  warm_hit_all : bool;  (** warm run answered every candidate from cache *)
  bounded_identical : bool;
      (** cold and warm bounded-cache JSON byte-equal to no-cache *)
  bounded_evictions : int;  (** evictions over both bounded runs *)
  bounded_dir_live : bool;
      (** the bounded cache's directory holds exactly its live entries *)
  daemon_identical : bool;  (** daemon-returned report byte-equal *)
  daemon_ok : bool;  (** ping/stats/shutdown round trip succeeded *)
}

type report = { jobs : int; result : result }

(** Run the gate ([jobs] below 2 is clamped to 2); uses a scratch
    directory under the system temp dir for the cache and the daemon
    socket. *)
val run : ?jobs:int -> unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
