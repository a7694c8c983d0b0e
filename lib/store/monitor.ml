(** Bit-exact scalar and monitor codec — see the .mli. *)

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

let pv_line r = "pv " ^ floats_lit (Option.map Stats.Running.raw r)
let pe_line e = "pe " ^ floats_lit (Option.map Stats.Err_stats.raw e)

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

let pv_of_line = monitor_of_line ~label:"pv" Stats.Running.of_raw
let pe_of_line = monitor_of_line ~label:"pe" Stats.Err_stats.of_raw
