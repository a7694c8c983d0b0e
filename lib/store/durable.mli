(** Durable files: the one crash-safe writer behind every on-disk
    store ({!Serve.Cache} entries, {!Serve.Journal} intents,
    {!Sweep.Checkpoint} waves) and the small file helpers around it. *)

(** Create a directory and its missing parents ([mkdir -p]); a
    directory created concurrently by someone else is not an error. *)
val mkdir_p : string -> unit

(** [fsync] a directory so a rename or unlink inside it is durable.
    Best effort: filesystems that refuse a directory [fsync] are
    ignored. *)
val fsync_dir : string -> unit

(** [write_atomic path content] — publish [content] at [path] so that a
    reader, a crash or a power cut sees the old file or the new one,
    never a prefix: the bytes go to a temp file beside [path], which is
    [fsync]ed, renamed over [path], and the directory [fsync]ed.  The
    temp name is unique to the writer (pid, domain, counter) and ends
    in [.tmp], so concurrent writers of one path — threads, domains or
    processes — never share or rename each other's half-written file;
    the last rename wins.  On failure the temp file is removed and the
    exception re-raised. *)
val write_atomic : string -> string -> unit

(** The whole file, as bytes.  Raises [Sys_error]. *)
val read_file : string -> string

(** A directory's entries in sorted order; [[]] when it cannot be
    read. *)
val readdir_sorted : string -> string list

(** Is the string usable as a file name as is: non-empty, only
    [[A-Za-z0-9._-]], and not starting with a dot?  Cache keys, job
    names and checkpoint keys outside this alphabet never reach the
    filesystem. *)
val is_safe_name : string -> bool
