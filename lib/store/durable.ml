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
