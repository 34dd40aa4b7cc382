(* The metric schema and the result line.

   Every run prints, as its last line of standard output, one JSON
   object: correct, attempted, failed, and metrics — the end-to-end
   metrics for an untraced run, the per-layer metrics for a traced one.
   Each workload reports every metric of the schema; the per-workload
   meaning of each is documented in perfbench/design.json. *)

let end_to_end : (string * string) list =
  [ ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("offline_s", "s");
    ("peak_rss_mb", "MB") ]

let pipeline_passes : string list =
  [ "scalarrepl"; "mem2reg"; "constprop"; "simplifycfg"; "dce"; "adce";
    "sccp"; "reassociate"; "gvn"; "licm"; "store-forward"; "prune-eh";
    "inline"; "ipconstprop"; "rangeprop"; "dae"; "dge"; "deadtypeelim" ]

(* Roster program names, in roster order (see Lifelong). *)
let roster_names : string list =
  List.map
    (fun p -> p.Llvm_workloads.Genprog.p_name)
    (Llvm_workloads.Spec.spec2000 @ Llvm_workloads.Spec.disciplined)
  @ List.map fst Llvm_workloads.Ehprog.programs

let per_layer : (string * string) list =
  [ ("protocol.busy_ms", "ms"); ("protocol.bytes", "bytes");
    ("loader.busy_ms", "ms"); ("loader.calls", "count");
    ("verify.busy_ms", "ms"); ("digest.busy_ms", "ms");
    ("cache.busy_ms", "ms"); ("cache.hits", "count");
    ("cache.misses", "count"); ("cache.hit_ratio", "ratio");
    ("cache.puts", "count"); ("cache.evictions", "count");
    ("pass.busy_ms", "ms") ]
  @ List.concat_map
      (fun p ->
        [ ("pass." ^ p ^ ".busy_ms", "ms"); ("pass." ^ p ^ ".changed_ratio", "ratio") ])
      pipeline_passes
  @ [ ("lint.busy_ms", "ms"); ("link.busy_ms", "ms");
      ("encoder.busy_ms", "ms"); ("encoder.bytes", "bytes");
      ("engine.create_ms", "ms"); ("range.busy_ms", "ms");
      ("range.field_share", "ratio");
      ("bytecode.compile_ms", "ms"); ("bytecode.compiled_instrs", "count");
      ("exec.dispatch_ms", "ms"); ("exec.instructions", "count");
      ("exec.promotions", "count"); ("exec.deopts", "count");
      ("exec.deopt_falls", "count"); ("exec.fast_ops", "count");
      ("profile.of_run_ms", "ms"); ("profile.codec_ms", "ms");
      ("profile.bytes", "bytes"); ("profile.merge_ms", "ms");
      ("pgo.busy_ms", "ms"); ("pgo.promoted", "count");
      ("pgo.inlined", "count"); ("pgo.guard_hit_ratio", "ratio");
      ("pgo.run_p50_ms", "ms"); ("pgo.run_p95_ms", "ms");
      ("gc.minor_words_per_op", "words"); ("gc.major_collections", "count") ]
  @ List.map (fun n -> ("prog." ^ n ^ ".lli_run_ms", "ms")) roster_names
  @ [ ("request.self_ms", "ms"); ("trace.coverage", "ratio");
      ("trace.overhead_ratio", "ratio"); ("failed_ratio", "ratio") ]

(* Record end-to-end values at the reference machine speed (see Calib):
   times divide by the run's slowdown, rates multiply by it, sizes stay.
   The raw values and the slowdown go to standard error. *)
let set_normalized (values : (string, float) Hashtbl.t) ~(slowdown : float)
    (raw : (string * float) list) : unit =
  List.iter
    (fun (name, v) ->
      let unit = List.assoc name end_to_end in
      let v' =
        match unit with
        | "s" | "ms" -> v /. slowdown
        | "1/s" -> v *. slowdown
        | _ -> v
      in
      Hashtbl.replace values name v')
    raw;
  Printf.eprintf "raw: {\"slowdown\": %.6f, %s}\n%!" slowdown
    (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%S: %.6g" n v) raw))

(* JSON has no NaN or infinity; a metric that cannot be formed is a bug
   in the benchmark, reported loudly rather than printed. *)
let number (name : string) (v : float) : string =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "metric %s is not finite" name)

let line ~(correct : bool) ~(attempted : int) ~(failed : int)
    ~(schema : (string * string) list) (values : (string, float) Hashtbl.t) :
    string =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt values name with
          | Some v -> v
          | None -> failwith ("metric not measured: " ^ name)
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number name v)
          unit)
      schema
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " metrics)

(* Per-layer metrics that come straight from the recorded spans and
   boundary counters; workload-specific ones are added by the caller,
   and any metric a workload never exercises reads 0. *)
let from_trace (spans : Trace.span list) (values : (string, float) Hashtbl.t) :
    unit =
  let set = Hashtbl.replace values in
  let busy name = Trace.busy_ms spans name in
  List.iter
    (fun (metric, span) -> set metric (busy span))
    [ ("protocol.busy_ms", "protocol"); ("loader.busy_ms", "loader");
      ("verify.busy_ms", "verify"); ("digest.busy_ms", "digest");
      ("cache.busy_ms", "cache"); ("lint.busy_ms", "lint");
      ("link.busy_ms", "link"); ("encoder.busy_ms", "encoder");
      ("engine.create_ms", "engine.create"); ("range.busy_ms", "range");
      ("bytecode.compile_ms", "bytecode"); ("profile.of_run_ms", "profile.of_run");
      ("profile.codec_ms", "profile.codec"); ("profile.merge_ms", "profile.merge");
      ("pgo.busy_ms", "pgo") ];
  set "pass.busy_ms"
    (Trace.busy_ms
       ~pred:(fun n -> String.length n > 5 && String.sub n 0 5 = "pass.")
       spans "pass.");
  List.iter
    (fun p ->
      let key = "pass." ^ p in
      set (key ^ ".busy_ms") (busy key);
      let runs = Trace.counter (key ^ ".runs") in
      set (key ^ ".changed_ratio")
        (if runs = 0.0 then 0.0 else Trace.counter (key ^ ".changed") /. runs))
    pipeline_passes;
  (* exec spans enclose lazily triggered bytecode compilation; the
     outside-timed compile estimate is taken back out *)
  set "exec.dispatch_ms"
    (Float.max 0.0 (busy "exec" -. busy "bytecode"));
  List.iter
    (fun c -> set c (Trace.counter c))
    [ "protocol.bytes"; "loader.calls"; "encoder.bytes"; "exec.instructions";
      "exec.promotions"; "exec.deopts"; "exec.deopt_falls"; "exec.fast_ops";
      "bytecode.compiled_instrs"; "profile.bytes"; "pgo.promoted";
      "pgo.inlined" ];
  set "request.self_ms" (Trace.root_self_ms spans);
  set "trace.coverage" (Trace.coverage spans)

let fill_missing (schema : (string * string) list)
    (values : (string, float) Hashtbl.t) : unit =
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem values name) then Hashtbl.replace values name 0.0)
    schema
