(** Machine-readable benchmark records.

    The bench harness emits one small JSON object per tracked kernel
    (e.g. [BENCH_grid.json], [BENCH_lockrange.json]) so the performance
    trajectory is comparable across PRs. Schema:

    {v
    {
      "name": "grid_sample_121x101x512",
      "jobs": 4,
      "wall_s": 0.31,
      "speedup_vs_seq": 2.7,
      ... further numeric fields (seq_wall_s, counters, flags) ...
      ... string fields (host_domains, ocaml_version, git_rev) ...
    }
    v}

    Numeric fields other than the fixed four land in [extra] (this is
    where bench runs embed telemetry counter snapshots such as
    [newton_iters]); string fields land in [meta] (host context from
    {!host_meta}).

    [parse] / [read] read a record back through {!Json.parse} and
    accept a flat object of strings and numbers, so CI can verify the
    emitted files without external dependencies. *)

type entry = {
  name : string;
  jobs : int;  (** pool size the timed run used *)
  wall_s : float;  (** wall-clock seconds of the timed run *)
  speedup_vs_seq : float;  (** sequential wall time / [wall_s] *)
  extra : (string * float) list;  (** any further numeric fields *)
  meta : (string * string) list;  (** any further string fields *)
}

val host_meta : unit -> (string * string) list
(** Execution context for bench records: recommended domain count,
    OCaml version, OS type, and — when the corresponding environment
    variables are set and non-empty — [git_rev] from [OSHIL_GIT_REV]
    (the revision CI baked in) and [dsa_findings] from
    [OSHIL_DSA_FINDINGS] (the unwaived static-analysis finding count at
    measurement time; the bench harnesses run behind the [@analyze]
    alias and record ["0"], asserting the tree was analyzer-clean when
    the numbers were taken). *)

exception Parse_error of string

val to_json : entry -> string
val write : path:string -> entry -> unit

val parse : string -> entry
(** Raises {!Parse_error} on malformed input, a field that is neither
    a string nor a number, or a missing required field. NaN round-trips
    as JSON [null], infinities as [1e999] / [-1e999]. *)

val read : path:string -> entry
