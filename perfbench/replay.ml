(* In-process helper of the end-to-end benchmark (run.py, NOTES.md).

   replay validate FILE
     every wire request must survive Api.Request.of_string followed by
     to_string byte for byte: the decoder silently drops unknown
     fields, so a misspelt parameter would otherwise run a different
     analysis than the one the workload names.
   replay handle [--jobs N] FILE
     one Api.handle response line per request (reference values).
   replay trace [--jobs N] [--cache-dir DIR] [--deadline S] FILE
     replays the operations twice: once through Api.handle (tracing
     off; per-operation times), once through the same pipeline composed
     from the layers' public calls with Obs counters on, timing each
     call. Prints one JSON object: layer times, counters, pool stats,
     the Api.handle samples, and how many composed replies differ from
     Api.handle's bytes.

   FILE holds one operation per line, PHASE<TAB>CLASS<TAB>WIRE, where
   PHASE is "setup" (run untimed before the timed operations, as the
   harness's set-up does) or "op". *)

type line = { phase : string; cls : string; wire : string }

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("replay: " ^ s); exit 2) fmt

let read_lines file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ phase; cls; wire ] -> { phase; cls; wire }
         | _ -> die "malformed line: %s" l)

let decode wire =
  match Api.Request.of_string wire with
  | Ok req -> req
  | Error msg -> die "bad request %s: %s" wire msg

(* --- per-layer timing ------------------------------------------------ *)

let layer_names =
  [
    "circuits.resolve_s"; "check.preflight_s"; "check.lint_s";
    "shil.natural_s"; "shil.grid_s"; "shil.solutions_s"; "shil.lockrange_s";
    "shil.ik_s"; "hb.oscprobe_s"; "hb.injected_s"; "hb.lockrange_s";
    "spice.parse_s"; "spice.op_s"; "spice.tran_s"; "api.render_s";
  ]

(* outside Api.handle: the wire codec around it *)
let codec_names = [ "api.decode_s"; "api.encode_s" ]
let layers : (string, float) Hashtbl.t = Hashtbl.create 32

let elapsed_s t0 = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) *. 1e-9

let timed name f =
  let t0 = Obs.Clock.now_ns () in
  Fun.protect f ~finally:(fun () ->
      let prev = Option.value (Hashtbl.find_opt layers name) ~default:0.0 in
      Hashtbl.replace layers name (prev +. elapsed_s t0))

(* --- the composed pipelines ----------------------------------------- *)

(* Shil.Analysis.run, call for call *)
let shil_report ?reduction (osc : Shil.Analysis.oscillator) ~n ~vi :
    Shil.Analysis.shil_report =
  timed "check.preflight_s" (fun () ->
      Check.Diagnostic.gate ~mode:`Enforce ~emit:ignore
        (Shil.Analysis.preflight osc ~n ~vi));
  let r = osc.tank.r in
  let natural = timed "shil.natural_s" (fun () -> Shil.Natural.solve osc.nl ~r) in
  let natural_amplitude =
    List.fold_left
      (fun acc (s : Shil.Natural.solution) -> if s.stable then Some s.a else acc)
      None natural
  in
  let a =
    match natural_amplitude with
    | Some a -> a
    | None -> failwith "no stable natural oscillation"
  in
  let grid =
    timed "shil.grid_s" (fun () ->
        Shil.Grid.sample ?reduction osc.nl ~n ~r ~vi
          ~a_range:(0.25 *. a, 1.25 *. a) ())
  in
  let locks_at_center =
    timed "shil.solutions_s" (fun () -> Shil.Solutions.find grid ~phi_d:0.0)
  in
  let lock_range =
    timed "shil.lockrange_s" (fun () ->
        Shil.Lock_range.predict grid ~tank:osc.tank)
  in
  let injection_harmonic =
    timed "shil.ik_s" (fun () ->
        let ref_a =
          match locks_at_center with
          | (p : Shil.Solutions.point) :: _ -> Some p.a
          | [] -> natural_amplitude
        in
        Option.map
          (fun a ->
            Shil.Describing_function.ik_two_tone ?reduction osc.nl ~n ~a ~vi
              ~phi:0.0 ~k:n)
          ref_a)
  in
  {
    osc; n; vi; natural; natural_amplitude; grid; locks_at_center; lock_range;
    injection_harmonic;
  }

(* Api.hb_run, call for call. The injected circuits' cache identity is
   built as Api.hb_run builds it, so cached runs hit the same entries. *)
let hb_outcome osc ~n ~vi ~k_max ~samples ~(mode : Api.Request.hb_mode) =
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let ident = Api.hb_ident osc in
  let a_guess =
    match
      timed "shil.natural_s" (fun () ->
          Shil.Natural.predicted_amplitude osc.nl ~r:tank.r)
    with
    | Some a -> a
    | None -> failwith "no natural amplitude to seed the oscprobe"
  in
  let free =
    timed "hb.oscprobe_s" (fun () ->
        Hb.Driver.oscprobe ?ident ~k_max ~samples ~f_guess:(Shil.Tank.f_c tank)
          ~a_guess (Api.hb_circuit osc))
  in
  let inj_ident = Option.map (fun id -> Printf.sprintf "%s|vi=%h" id vi) ident in
  let inject ~f_inj =
    Api.hb_circuit ~injection:(Api.hb_injection_wave ~tank ~n ~vi ~f_inj) osc
  in
  let hb_mode : Api.hb_mode_result =
    match mode with
    | Hb_osc -> Hb_free_only
    | Hb_injected f_inj ->
      Hb_locked
        (timed "hb.injected_s" (fun () ->
             Hb.Driver.injected ?ident:inj_ident ~free ~n ~f_inj (inject ~f_inj)))
    | Hb_lockrange ->
      let df = (shil_report osc ~n ~vi).lock_range in
      let band =
        timed "hb.lockrange_s" (fun () ->
            Hb.Driver.lock_range ?ident:inj_ident ~free ~n
              ~guess_width:df.delta_f_inj ~inject ())
      in
      Hb_band { band; df }
  in
  { Api.hb_n = n; hb_vi = vi; free; hb_mode }

let resolve spec = timed "circuits.resolve_s" (fun () -> Api.resolve_oscillator spec)
let render f = timed "api.render_s" f

(* Api.run_payload, composed from the layers' public calls *)
let compose (req : Api.Request.t) =
  match req.payload with
  | Ping -> "pong"
  | Shil { osc; n; vi; reduced; finj } ->
    let reduction = if reduced then Some `Symmetry else None in
    let report = shil_report ?reduction (resolve osc) ~n ~vi in
    render (fun () -> Api.shil_report_text report ~finj)
  | Hb { osc; n; vi; k_max; samples; mode } ->
    let o = hb_outcome (resolve osc) ~n ~vi ~k_max ~samples ~mode in
    render (fun () -> Api.hb_text o)
  | Lint { name; text } ->
    let ds = timed "check.lint_s" (fun () -> Api.lint_text ~name text) in
    render (fun () -> Api.lint_entry ~file:name ds)
  | Netlist_op { name; text } ->
    let circuit = timed "spice.parse_s" (fun () -> Api.netlist_of_text ~name text) in
    let op = timed "spice.op_s" (fun () -> Spice.Op.run circuit) in
    render (fun () -> Api.op_text ~circuit op)
  | Netlist_tran { name; text; t_stop; dt; probes } ->
    let circuit = timed "spice.parse_s" (fun () -> Api.netlist_of_text ~name text) in
    let nodes = if probes = [] then Spice.Circuit.node_names circuit else probes in
    let probes = List.map (fun n -> Spice.Transient.Node n) nodes in
    let res =
      timed "spice.tran_s" (fun () ->
          Spice.Transient.run circuit ~probes
            (Spice.Transient.default_options ~dt ~t_stop))
    in
    render (fun () -> Api.tran_csv res)
  | Sleep _ | Scenario _ | Health | Stats ->
    failwith ("no composed pipeline for " ^ Api.Request.op_name req.payload)

(* --- subcommands ----------------------------------------------------- *)

let validate file =
  List.iter
    (fun l ->
      let canon = Api.Request.to_string (decode l.wire) in
      if canon <> l.wire then
        die "request does not round-trip:\n  sent      %s\n  canonical %s"
          l.wire canon)
    (read_lines file)

let handle file =
  List.iter
    (fun l ->
      let req = decode l.wire in
      print_endline (Api.response_of_outcome ~id:req.id (Api.handle req)))
    (read_lines file)

let counter_names =
  [
    "shil.grid.f_evals"; "shil.df.i1_evals"; "shil.lockrange.probes";
    "shil.solutions.candidates"; "shil.solutions.refine_fails"; "hb.solves";
    "hb.newton_iters"; "resilience.hb.failed"; "spice.newton.iters";
    "spice.newton.solves"; "spice.transient.steps_accepted";
    "spice.transient.steps_rejected"; "cache.hits"; "cache.misses";
    "cache.evictions"; "cache.disk_writes";
  ]

let trace ~deadline ~cache_dir file =
  let lines = read_lines file in
  let ops = List.filter (fun l -> l.phase = "op") lines in
  let setup = List.filter (fun l -> l.phase <> "op") lines in
  (* each pass starts from an empty cache, as each timed run does *)
  let fresh_cache pass =
    Option.iter
      (fun dir ->
        Cache.Store.set_enabled true;
        Cache.Store.set_dir (Filename.concat dir pass);
        Cache.Store.set_memory_capacity ())
      cache_dir
  in
  let handle req = Api.handle ?default_deadline_s:deadline req in
  let run_setup () = List.iter (fun l -> ignore (handle (decode l.wire))) setup in
  (* pass 1: Api.handle, tracing off *)
  fresh_cache "untraced";
  run_setup ();
  let t0 = Obs.Clock.now_ns () in
  let untraced =
    List.map
      (fun l ->
        let req = decode l.wire in
        let t = Obs.Clock.now_ns () in
        let out = handle req in
        (l.cls, elapsed_s t, out))
      ops
  in
  let untraced_wall = elapsed_s t0 in
  (* pass 2: the composed pipeline, Obs counters on *)
  fresh_cache "traced";
  run_setup ();
  Obs.reset ();
  Obs.set_enabled true;
  Hashtbl.reset layers;
  let pool0 = Numerics.Pool.stats () in
  let t0 = Obs.Clock.now_ns () in
  let mismatches =
    List.fold_left2
      (fun bad l (_, _, reference) ->
        let req = timed "api.decode_s" (fun () -> Api.Request.of_string l.wire) in
        let composed =
          match req with
          | Error _ -> None
          | Ok req -> (
            match compose req with
            | report ->
              ignore
                (timed "api.encode_s" (fun () ->
                     Api.response_of_outcome ~id:req.id (Ok report)));
              Some report
            | exception _ -> None)
        in
        match (composed, reference) with
        | Some c, Ok r when String.equal c r -> bad
        | _ -> bad + 1)
      0 ops untraced
  in
  let traced_wall = elapsed_s t0 in
  let pool1 = Numerics.Pool.stats () in
  Obs.set_enabled false;
  let errors =
    List.length (List.filter (fun (_, _, o) -> Result.is_error o) untraced)
  in
  let num v = Printf.sprintf "%.9g" v in
  let obj kvs =
    "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) kvs) ^ "}"
  in
  let layer k = (k, num (Option.value (Hashtbl.find_opt layers k) ~default:0.0)) in
  let counter k = (k, string_of_int (Obs.Metrics.counter_value k)) in
  print_endline
    (obj
       [
         ("ops", string_of_int (List.length ops));
         ("errors", string_of_int errors);
         ("mismatches", string_of_int mismatches);
         ("untraced_wall_s", num untraced_wall);
         ("traced_wall_s", num traced_wall);
         ("layers", obj (List.map layer (layer_names @ codec_names)));
         ("counters", obj (List.map counter counter_names));
         ( "pool",
           obj
             [
               ("tasks", string_of_int (pool1.tasks - pool0.tasks));
               ("busy_s", num (Int64.to_float (Int64.sub pool1.busy_ns pool0.busy_ns) *. 1e-9));
             ] );
         ( "handle",
           "["
           ^ String.concat ","
               (List.map (fun (c, s, _) -> Printf.sprintf "[%S,%s]" c (num s)) untraced)
           ^ "]" );
       ])

let () =
  let rec opts jobs cache_dir deadline = function
    | "--jobs" :: v :: rest -> opts (int_of_string_opt v) cache_dir deadline rest
    | "--cache-dir" :: v :: rest -> opts jobs (Some v) deadline rest
    | "--deadline" :: v :: rest -> opts jobs cache_dir (float_of_string_opt v) rest
    | [ file ] -> (jobs, cache_dir, deadline, file)
    | _ -> die "usage: replay (validate|handle|trace) [--jobs N] [--cache-dir DIR] [--deadline S] FILE"
  in
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
    let jobs, cache_dir, deadline, file = opts None None None rest in
    Option.iter Numerics.Pool.set_jobs jobs;
    match cmd with
    | "validate" -> validate file
    | "handle" -> handle file
    | "trace" -> trace ~deadline ~cache_dir file
    | other -> die "unknown command %s" other)
  | _ -> die "usage: replay (validate|handle|trace) ... FILE"
