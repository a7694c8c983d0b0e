(** Client side of the daemon protocol — what [fxrefine submit] (and
    the serve gate) speak.  Synchronous: one request line out, one
    response line back. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

exception Protocol_error of string

type connect_failure =
  | No_socket  (** the socket path does not exist (yet) *)
  | Stale_socket
      (** the path exists but nothing is listening — a leftover socket
          file from a daemon that died without cleaning up *)

exception
  Connect_failed of {
    socket : string;
    attempts : int;
    failure : connect_failure;
  }

let () =
  Printexc.register_printer (function
    | Protocol_error m -> Some (Printf.sprintf "Serve.Client.Protocol_error: %s" m)
    | Connect_failed { socket; attempts; failure } ->
        Some
          (Printf.sprintf "Serve.Client.Connect_failed: %s after %d attempts: %s"
             socket attempts
             (match failure with
             | No_socket -> "socket path does not exist (daemon never started?)"
             | Stale_socket ->
                 "socket file exists but nothing is listening (stale socket \
                  from a dead daemon?)"))
    | _ -> None)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* In [0, 1): the first draw of the (seed, attempt) pair's own stream,
   without touching the global Random state. *)
let jitter ~seed ~attempt =
  Stats.Rng.float (Stats.Rng.create ~seed:((seed * 1_000_003) + attempt))

(* Retry [connect] until the daemon's listener is up — covers the
   start-up race of a freshly forked/backgrounded daemon and a daemon
   mid-restart.  Delays grow exponentially from [base_delay_s] up to
   1 s, each scaled by a seeded jitter in [0.5, 1.0] so a
   fleet of clients sharing a seedless default never thunders in
   lockstep.  Exhaustion raises {!Connect_failed}, distinguishing a
   socket path that never appeared from a stale socket file nothing
   listens on (the two failures call for different operator action). *)
let connect_retry ?(attempts = 50) ?(base_delay_s = 0.02) ?(seed = 0) socket =
  if attempts < 1 then invalid_arg "Serve.Client.connect_retry: attempts < 1";
  let classify () =
    if Sys.file_exists socket then Stale_socket else No_socket
  in
  let rec go n =
    match connect socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n >= attempts ->
        raise
          (Connect_failed { socket; attempts = n; failure = classify () })
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        let backoff =
          Float.min 1.0
            (base_delay_s *. (2.0 ** float_of_int (n - 1)))
        in
        Unix.sleepf (backoff *. (0.5 +. (0.5 *. jitter ~seed ~attempt:n)));
        go (n + 1)
  in
  go 1

let request t req =
  output_string t.oc (Protocol.request_to_line req);
  output_char t.oc '\n';
  flush t.oc;
  match input_line t.ic with
  | exception End_of_file ->
      raise (Protocol_error "connection closed before response")
  | line -> (
      match Protocol.response_of_line line with
      | Some resp -> resp
      | None -> raise (Protocol_error ("malformed response: " ^ line)))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
