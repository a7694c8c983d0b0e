(** Durable files — see the .mli for the contract. *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir d =
  match Unix.openfile d [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* One temp file per write: two writers of the same path must not
   truncate, fill or rename each other's file. *)
let temp_counter = Atomic.make 0

let temp_path path =
  Printf.sprintf "%s.%d-%d-%d.tmp" path (Unix.getpid ())
    (Domain.self () :> int)
    (Atomic.fetch_and_add temp_counter 1)

let write_atomic path content =
  let tmp = temp_path path in
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let b = Bytes.unsafe_of_string content in
        let n = Bytes.length b in
        let written = ref 0 in
        while !written < n do
          written := !written + Unix.write fd b !written (n - !written)
        done;
        Unix.fsync fd);
    Sys.rename tmp path
  with
  | () -> fsync_dir (Filename.dirname path)
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- the record frame --------------------------------------------------- *)

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) on native ints,
   which hold 32 bits unboxed.  The table is built eagerly: a [lazy]
   would be forced concurrently by every worker domain sharing a cache,
   and [Lazy.force] is not domain-safe. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let header ~magic payload =
  Printf.sprintf "%s %d %08x" magic (String.length payload) (crc32 payload)

let write_record ~magic path payload =
  write_atomic path (header ~magic payload ^ "\n" ^ payload)

(* The header must equal the one the writer would render for the bytes
   that follow it: a wrong magic, a length the file disagrees with
   (truncation, trailing bytes), a checksum that does not match
   (bit-rot) or a non-canonical spelling of either number all fail. *)
let read_record ~magic path =
  match read_file path with
  | exception Sys_error _ -> None
  | raw -> (
      match String.index_opt raw '\n' with
      | None -> None
      | Some nl ->
          let payload = String.sub raw (nl + 1) (String.length raw - nl - 1) in
          if String.equal (String.sub raw 0 nl) (header ~magic payload) then
            Some payload
          else None)

let readdir_sorted dir =
  match Sys.readdir dir with
  | arr ->
      Array.sort compare arr;
      Array.to_list arr
  | exception Sys_error _ -> []

let is_safe_name k =
  k <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       k
  && k.[0] <> '.'
