(* Shared plumbing of the benchmark: clocks, order statistics, process
   and filesystem probes, and the result line every workload prints. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (numpy's default), on an
   already sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let w = pos -. float_of_int lo in
    (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A percentile is meaningful only with at least ten samples beyond it. *)
let percentile_valid ~n q = float_of_int n *. (1.0 -. q) >= 10.0

(* Percentile [q] of per-pass samples, robust to host bursts: pool
   consecutive passes into groups of at least 1000 samples, take [q]
   within each group, report the median over groups. *)
let grouped_percentile passes q =
  let rec groups acc cur n = function
    | [] -> (
        (* a short tail joins the last full group *)
        match acc with
        | g :: rest when cur <> [] -> (cur @ g) :: rest
        | _ -> if cur = [] then acc else cur :: acc)
    | p :: rest ->
        let cur = p @ cur and n = n + List.length p in
        if n >= 1000 then groups (cur :: acc) [] 0 rest
        else groups acc cur n rest
  in
  median (List.map (fun g -> quantile g q) (groups [] [] 0 passes))

(* --- host speed ----------------------------------------------------------- *)

(* The shared host's speed drifts by up to ~1.9x over seconds to
   minutes, and whole runs can sit in a slow phase, so raw wall times of
   two sets of runs of the same code disagree by more than any useful
   regression bound.  Every timed quantity is therefore reported in
   reference-host seconds: divided by the host factor, the median time
   of [reference_loop] sampled throughout the run over [reference_s].
   The loop is fixed stdlib-only work and calls no code of the
   repository, so a change to the program cannot move it.  Its three
   parts stand for the kinds of work the workloads do: a branch-heavy
   dispatch loop over a small instruction array (the compiled
   executor, the verifier), short-lived boxed-float allocation (the
   interpreter, report building) and a hash table keyed by float
   arrays (the verifier's state set).  Raw figures are printed in the
   notes. *)

let reference_s = 0.006

type op =
  | Add of int * int
  | Mul of int * int
  | Sub of int * int
  | Max of int * int
  | Neg of int
  | Cst of float

let program =
  Array.init 64 (fun i ->
      match i mod 6 with
      | 0 -> Add (i * 7 mod 16, i * 3 mod 16)
      | 1 -> Mul (i * 5 mod 16, (i + 1) mod 16)
      | 2 -> Sub (i * 9 mod 16, i * 2 mod 16)
      | 3 -> Max (i mod 16, i * 13 mod 16)
      | 4 -> Neg (i * 11 mod 16)
      | _ -> Cst (float_of_int i))

let reference_loop () =
  let r = Array.make 16 1.0 in
  for it = 1 to 5000 do
    Array.iteri
      (fun i op ->
        let v =
          match op with
          | Add (a, b) -> r.(a) +. r.(b)
          | Mul (a, b) -> r.(a) *. r.(b) *. 0.5
          | Sub (a, b) -> r.(a) -. r.(b)
          | Max (a, b) -> Float.max r.(a) r.(b)
          | Neg a -> -.r.(a)
          | Cst c -> c +. float_of_int it
        in
        r.(i land 15) <- (if Float.abs v > 1e6 then 1.0 else v))
      program
  done;
  let a = Array.init 4096 float_of_int in
  let acc = ref 0.0 in
  for k = 1 to 40 do
    let l =
      Array.fold_left (fun l x -> ((x *. 1.0001) +. float_of_int k) :: l) [] a
    in
    acc := !acc +. List.fold_left ( +. ) 0.0 l
  done;
  let h = Hashtbl.create 4096 in
  for k = 0 to 20_000 do
    let key = [| float_of_int (k * 7919 land 2047); float_of_int (k land 7) |] in
    match Hashtbl.find_opt h key with
    | Some v -> Hashtbl.replace h key (v + 1)
    | None -> Hashtbl.add h key k
  done;
  ignore (Sys.opaque_identity (r, !acc, h))

(* [n] timings of the reference loop. *)
let host_samples n = List.init n (fun _ -> snd (time reference_loop))

(* How much slower than the reference host the samples say the host
   is (> 1: slower). *)
let host_factor samples = median samples /. reference_s

(* --- process probes ------------------------------------------------------ *)

(* VmHWM (peak resident set) of [pid] in MB, from /proc. *)
let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* --- filesystem ---------------------------------------------------------- *)

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Bytes of every regular file under [p]. *)
let rec du p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + du (Filename.concat p e))
        0 (Sys.readdir p)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let mb bytes = float_of_int bytes /. 1048576.0

(* Filesystem type of the mount holding [dir]: the longest mount point
   in /proc/self/mounts that prefixes its absolute path. *)
let fs_type dir =
  let abs =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir
    else dir
  in
  let under mp =
    mp = "/"
    || String.equal abs mp
    || String.starts_with ~prefix:(mp ^ "/") abs
  in
  match In_channel.with_open_text "/proc/self/mounts" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
      List.fold_left
        (fun (best_len, best) line ->
          match String.split_on_char ' ' line with
          | _dev :: mp :: ty :: _ when under mp && String.length mp > best_len
            ->
              (String.length mp, ty)
          | _ -> (best_len, best))
        (-1, "unknown")
        (String.split_on_char '\n' text)
      |> snd

(* --- seeded inputs ------------------------------------------------------- *)

(* [n] distinct non-negative ints below [bound], drawn from [st]. *)
let distinct_ints st ~n ~bound =
  let seen = Hashtbl.create n in
  let rec go acc k =
    if k = n then List.rev acc
    else
      let v = Random.State.int st bound in
      if Hashtbl.mem seen v then go acc k
      else begin
        Hashtbl.add seen v ();
        go (v :: acc) (k + 1)
      end
  in
  go [] 0

(* Seeded sample of [k] elements of [xs] (order of [xs] kept). *)
let sample st ~k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n <= k then xs
  else
    let picked = distinct_ints st ~n:k ~bound:n |> List.sort compare in
    List.map (fun i -> a.(i)) picked

(* Bit-exact comparison of two metric records, via the cache codec's
   [%h] rendering. *)
let same_metrics a b = String.equal (Serve.Codec.encode a) (Serve.Codec.encode b)

(* --- the result line ----------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human lines printed before the JSON *)
}

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result r =
  List.iter print_endline r.notes;
  let r =
    (* JSON has no NaN/inf: an undefined figure (a layer with no
       samples) reads 0 *)
    {
      r with
      metrics =
        List.map
          (fun x -> if Float.is_finite x.value then x else { x with value = 0.0 })
          r.metrics;
    }
  in
  List.iter
    (fun x -> Printf.printf "  %-32s %s %s\n" x.name (num x.value) x.unit_)
    r.metrics;
  Printf.printf "attempted %d, failed %d\n" r.attempted r.failed;
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (num x.value) x.unit_)
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed metrics
