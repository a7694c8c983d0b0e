(** Durable files: the one crash-safe writer and the one checked record
    frame behind every on-disk store ({!Serve.Cache} entries,
    {!Serve.Journal} intents, {!Sweep.Checkpoint} waves), and the small
    file helpers around them. *)

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

(** [write_record ~magic path payload] — {!write_atomic} [payload] in
    the one record frame:

    {v <magic> <payload-bytes> <crc32-hex>\n<payload> v}

    The byte count is decimal, the CRC-32 (IEEE 802.3) of the payload
    eight lowercase hex digits.  The count makes truncation and
    trailing bytes detectable; the checksum catches same-length damage
    such as a flipped bit.  The payload is arbitrary bytes. *)
val write_record : magic:string -> string -> string -> unit

(** [read_record ~magic path] — the payload of a {!write_record} file,
    or [None] when the file is missing or unreadable, or its header is
    not exactly the one [write_record ~magic] renders for the bytes
    that follow it (another magic, a count or checksum that disagrees
    with the payload).  Damage therefore reads as "no record", never
    as a wrong one. *)
val read_record : magic:string -> string -> string option

(** A directory's entries in sorted order; [[]] when it cannot be
    read. *)
val readdir_sorted : string -> string list

(** Is the string usable as a file name as is: non-empty, only
    [[A-Za-z0-9._-]], and not starting with a dot?  Cache keys, job
    names and checkpoint keys outside this alphabet never reach the
    filesystem. *)
val is_safe_name : string -> bool
