(** The differential fuzzing driver.

    For every seed the driver generates a module, judges it against a
    set of oracles, then replays the same judgement on a configurable
    number of semantics-preserving mutation chains of the module.
    Failures are optionally minimized with the {!Reduce} reducer and
    persisted as [.ll] repro files in a corpus directory. *)

type config = {
  c_oracles : Oracle.t list;
  c_paths : int;  (** mutation chains per seed (0 = pristine only) *)
  c_mut_count : int;  (** mutations per chain *)
  c_reduce : bool;  (** minimize failures before reporting *)
  c_corpus : string option;  (** directory for minimized repro files *)
}

val default_config : config

type failure = {
  fa_seed : int;
  fa_path : int;  (** 0 = pristine module, n = mutation chain n *)
  fa_mutations : string list;
  fa_oracle : string;
  fa_message : string;
  fa_instrs : int;  (** instruction count of the reported module *)
  fa_repro : string option;  (** corpus file the repro was written to *)
}

type report = {
  r_seeds : int;
  r_checks : int;  (** oracle verdicts collected *)
  r_passed : int;
  r_failed : int;
  r_skipped : int;
  r_failures : failure list;
  r_mutations : int;  (** module-changing mutations applied in total *)
}

val empty_report : report

(** Run one seed and fold its outcome into [report]. *)
val run_seed : config -> report -> int -> report

(** Run seeds [first..first+count-1], stopping early when [stop ()]
    becomes true (time budgets); [progress] is called after each seed
    with the running report. *)
val run :
  ?progress:(int -> report -> unit) ->
  ?stop:(unit -> bool) ->
  config ->
  first:int ->
  count:int ->
  report

(** The report's JSON members, as [llvm-fuzz --json] prints them and
    [bench fuzz] writes them: the counters, [elapsed_s] (the caller's
    wall time, 2 decimals) and every failure. *)
val report_json :
  elapsed:float -> report -> (string * Llvm_json.Json.t) list

(** Render a module as a corpus repro file: header comments recording
    seed, path, mutation chain and oracle message, then the IR. *)
val repro_contents :
  seed:int ->
  path:int ->
  mutations:string list ->
  oracle:string ->
  message:string ->
  Llvm_ir.Ir.modul ->
  string
