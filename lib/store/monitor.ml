(** The [fxmetrics 1] codec — see the .mli. *)

let float_lit = Printf.sprintf "%h"
let opt_lit = function None -> "none" | Some v -> float_lit v

let opt_of_lit s =
  if String.equal s "none" then Some None
  else Option.map Option.some (float_of_string_opt s)

let field ~label line =
  let pl = String.length label + 1 in
  if
    String.length line > pl
    && String.starts_with ~prefix:label line
    && line.[pl - 1] = ' '
  then Some (String.sub line pl (String.length line - pl))
  else None

let floats_lit = function
  | None -> "none"
  | Some a -> String.concat " " (Array.to_list (Array.map float_lit a))

let ( let* ) = Option.bind

(* [Some None] for [none]; the raw fields rebuilt through [of_raw],
   whose arity check turns a short or long line into [None]. *)
let monitor_of_line ~label of_raw line =
  let* body = field ~label line in
  if String.equal body "none" then Some None
  else
    let rec go acc = function
      | [] -> (
          match of_raw (Array.of_list (List.rev acc)) with
          | m -> Some (Some m)
          | exception Invalid_argument _ -> None)
      | p :: rest ->
          let* v = float_of_string_opt p in
          go (v :: acc) rest
    in
    go [] (String.split_on_char ' ' body)

let header = "fxmetrics 1"

let encode (m : Refine.Eval.metrics) =
  if m.counters <> None then
    invalid_arg "Store.Monitor.encode: counter-carrying metrics do not persist";
  String.concat "\n"
    [
      header;
      "sqnr " ^ opt_lit m.sqnr_db;
      Printf.sprintf "bits %d" m.total_bits;
      Printf.sprintf "ovf %d" m.overflow_count;
      "errmax " ^ float_lit m.probe_err_max;
      "pv " ^ floats_lit (Option.map Stats.Running.raw m.probe_values);
      "pe " ^ floats_lit (Option.map Stats.Err_stats.raw m.probe_err);
    ]

let decode s =
  match String.split_on_char '\n' s with
  | [ h; sqnr; bits; ovf; errmax; pv; pe ] when String.equal h header ->
      let* sqnr = field ~label:"sqnr" sqnr in
      let* sqnr_db = opt_of_lit sqnr in
      let* bits = field ~label:"bits" bits in
      let* total_bits = int_of_string_opt bits in
      let* ovf = field ~label:"ovf" ovf in
      let* overflow_count = int_of_string_opt ovf in
      let* errmax = field ~label:"errmax" errmax in
      let* probe_err_max = float_of_string_opt errmax in
      let* probe_values = monitor_of_line ~label:"pv" Stats.Running.of_raw pv in
      let* probe_err = monitor_of_line ~label:"pe" Stats.Err_stats.of_raw pe in
      Some
        {
          Refine.Eval.sqnr_db;
          total_bits;
          overflow_count;
          probe_err_max;
          probe_values;
          probe_err;
          counters = None;
        }
  | _ -> None
