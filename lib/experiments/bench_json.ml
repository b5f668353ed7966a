type entry = {
  name : string;
  jobs : int;
  wall_s : float;
  speedup_vs_seq : float;
  extra : (string * float) list;
  meta : (string * string) list;
}

let host_meta () =
  let base =
    [
      ("host_domains", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml_version", Sys.ocaml_version);
      ("os_type", Sys.os_type);
    ]
  in
  let opt key = function
    | Some v when String.trim v <> "" -> [ (key, String.trim v) ]
    | _ -> []
  in
  base
  @ opt "git_rev" (Sys.getenv_opt "OSHIL_GIT_REV")
  @ opt "dsa_findings" (Sys.getenv_opt "OSHIL_DSA_FINDINGS")

(* nan is null; infinities are the out-of-range literals [1e999] /
   [-1e999] that {!Json.parse} reads back as infinity (the same
   convention as the trace sink). *)
let json_float x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else if not (Float.is_finite x) then if x > 0. then "1e999" else "-1e999"
  else Printf.sprintf "%.9g" x

let to_json e =
  let fields =
    [
      Printf.sprintf "\"name\": \"%s\"" (Json.escape e.name);
      Printf.sprintf "\"jobs\": %d" e.jobs;
      Printf.sprintf "\"wall_s\": %s" (json_float e.wall_s);
      Printf.sprintf "\"speedup_vs_seq\": %s" (json_float e.speedup_vs_seq);
    ]
    @ List.map
        (fun (k, v) ->
          Printf.sprintf "\"%s\": %s" (Json.escape k) (json_float v))
        e.extra
    @ List.map
        (fun (k, v) ->
          Printf.sprintf "\"%s\": \"%s\"" (Json.escape k) (Json.escape v))
        e.meta
  in
  "{\n  " ^ String.concat ",\n  " fields ^ "\n}\n"

let write ~path e =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json e))

(* ------------------------------------------------------------------ *)
(* Reading a record back: the shared parser, then a flat object whose
   fields are strings or numbers (null standing for nan). Used by the
   bench-smoke target and the tests to verify the emitted files parse. *)

exception Parse_error of string

let parse text =
  let fields =
    match Json.parse text with
    | Ok (Obj fields) -> fields
    | Ok _ -> raise (Parse_error "expected a JSON object")
    | Error msg -> raise (Parse_error msg)
  in
  let fields =
    List.map
      (fun (k, (v : Json.t)) ->
        match v with
        | Str s -> (k, `String s)
        | Num f -> (k, `Float f)
        | Null -> (k, `Float Float.nan)
        | Bool _ | List _ | Obj _ ->
          raise
            (Parse_error
               (Printf.sprintf "field %S: expected a string or a number" k)))
      fields
  in
  let find k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> raise (Parse_error (Printf.sprintf "missing field %S" k))
  in
  let get_string k =
    match find k with
    | `String s -> s
    | `Float _ -> raise (Parse_error (Printf.sprintf "field %S: expected string" k))
  in
  let get_float k =
    match find k with
    | `Float f -> f
    | `String _ -> raise (Parse_error (Printf.sprintf "field %S: expected number" k))
  in
  {
    name = get_string "name";
    jobs = int_of_float (get_float "jobs");
    wall_s = get_float "wall_s";
    speedup_vs_seq = get_float "speedup_vs_seq";
    extra =
      List.filter_map
        (fun (k, v) ->
          match (k, v) with
          | ("name" | "jobs" | "wall_s" | "speedup_vs_seq"), _ -> None
          | k, `Float f -> Some (k, f)
          | _, `String _ -> None)
        fields;
    meta =
      List.filter_map
        (fun (k, v) ->
          match (k, v) with
          | "name", _ -> None
          | k, `String s -> Some (k, s)
          | _, `Float _ -> None)
        fields;
  }

let read ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
