let to_string ~property (ce : Engine.counterexample) =
  let b = Buffer.create 256 in
  Buffer.add_string b "# fxrefine verify counterexample v1\n";
  Printf.bprintf b "property %s\n" (Engine.property_name property);
  (match ce.Engine.violation with
  | Engine.Overflow { node; step } ->
      Printf.bprintf b "violation overflow %d %s\n" step node
  | Engine.Limit_cycle { start; period } ->
      Printf.bprintf b "violation limit-cycle %d %d\n" start period);
  Printf.bprintf b "steps %d\n" ce.Engine.steps;
  List.iter
    (fun (name, arr) ->
      Printf.bprintf b "input %s" name;
      Array.iter (fun v -> Printf.bprintf b " %h" v) arr;
      Buffer.add_char b '\n')
    ce.Engine.stimulus;
  Buffer.contents b

let of_string s =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let fields l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let property = ref None
  and violation = ref None
  and steps = ref None
  and stimulus = ref [] in
  let* () =
    List.fold_left
      (fun acc line ->
        let* () = acc in
        match fields line with
        | "property" :: [ p ] -> (
            match Engine.property_of_string p with
            | Some p ->
                property := Some p;
                Ok ()
            | None -> Error (Printf.sprintf "unknown property %S" p))
        | "violation" :: "overflow" :: step :: node -> (
            match (int_of_string_opt step, node) with
            | Some step, [ node ] ->
                violation := Some (Engine.Overflow { node; step });
                Ok ()
            | _ -> Error (Printf.sprintf "bad overflow line %S" line))
        | [ "violation"; "limit-cycle"; start; period ] -> (
            match (int_of_string_opt start, int_of_string_opt period) with
            | Some start, Some period ->
                violation := Some (Engine.Limit_cycle { start; period });
                Ok ()
            | _ -> Error (Printf.sprintf "bad limit-cycle line %S" line))
        | [ "steps"; n ] -> (
            match int_of_string_opt n with
            | Some n ->
                steps := Some n;
                Ok ()
            | None -> Error (Printf.sprintf "bad steps line %S" line))
        | "input" :: name :: samples -> (
            match
              List.map
                (fun s ->
                  match float_of_string_opt s with
                  | Some v -> v
                  | None -> raise Exit)
                samples
            with
            | vs ->
                stimulus := (name, Array.of_list vs) :: !stimulus;
                Ok ()
            | exception Exit ->
                Error (Printf.sprintf "bad sample on input line for %s" name))
        | _ -> Error (Printf.sprintf "unrecognized line %S" line))
      (Ok ()) lines
  in
  match (!property, !violation, !steps) with
  | Some property, Some violation, Some steps ->
      let stimulus = List.rev !stimulus in
      if List.exists (fun (_, a) -> Array.length a <> steps) stimulus then
        Error "input line length does not match steps"
      else Ok (property, { Engine.steps; stimulus; violation })
  | None, _, _ -> Error "missing property line"
  | _, None, _ -> Error "missing violation line"
  | _, _, None -> Error "missing steps line"

let load ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s
