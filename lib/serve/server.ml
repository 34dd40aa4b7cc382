(* Compilation-as-a-service: the in-process request handler.

   The daemon (Daemon) is a thin socket loop over this module, and
   tests call [handle] directly — the pure-pipeline core stays in
   lib/transforms; this driver owns caching and scheduling (the Juvix
   Compiler/Pipeline split named in the roadmap).

   Content addressing: a request payload (textual IR or bitcode) is
   parsed once and re-encoded to the canonical bitcode form; the MD5 of
   those bytes (Llvm_bitcode.Digest) is the module's identity, so the
   same program arriving as .ll or .bc hits the same cache line.  The
   pass-result cache maps (module digest × pipeline spec) to optimized
   bitcode across N LRU shards (Cache).  The canonical digest costs a
   full re-encode, so an alias store maps the MD5 of the raw payload
   bytes to it: each distinct payload is digested once.  Every payload
   is still parsed and verified on every request.

   One request path: compile, lint and link each derive their cache
   key in one function that loads and verifies the payloads.  [handle]
   looks the key up, computes on a miss and installs the result;
   [probe] (the daemon's front cache) only looks it up.

   Link-time IPO: a Link request names application modules plus a
   shared library set.  The expensive link-time IPO pipeline runs once
   per distinct library set (cached under the library-set digest);
   each request then links its apps against the pre-optimized library
   and pays only the per-module pipeline.  Queued links sharing a set,
   answered in order, therefore run IPO once.

   Validation: with [--validate] (or per-request), the server replays
   the translation-validation witness before releasing a result: the
   original module and the optimized module are executed in the
   interpreter tier under the same fuel and must agree on status and
   output.  A divergent optimization is Rejected on the request that
   triggered it — never served, never cached. *)

open Llvm_ir
module Engine = Llvm_exec.Engine
module Interp = Llvm_exec.Interp

type config = {
  shards : int;
  shard_bytes : int;
  validate : bool; (* force witness validation on every compile/link *)
  validate_fuel : int;
}

let default_config =
  { shards = Cache.default_shards;
    shard_bytes = Cache.default_shard_bytes;
    validate = false;
    validate_fuel = 20_000_000 }

type counters = {
  mutable c_compile : int;
  mutable c_link : int;
  mutable c_run : int;
  mutable c_lint : int;
  mutable c_stats : int;
  mutable c_ping : int;
  mutable c_failed : int;
  mutable c_rejected : int;
  mutable c_timed_out : int;
}

(* log2 microsecond buckets: bucket b holds latencies in [2^b, 2^b+1) us *)
let lat_buckets = 32

type t = {
  cfg : config;
  cache : Cache.t;
  aliases : Cache.t; (* raw payload digest -> canonical module digest *)
  ctr : counters;
  mutable validation_rejects : int;
  lat : int array;
  mutable lat_count : int;
  mutable lat_max_us : int;
  started : float;
}

(* Alias values are 32-byte hex digests: 2048 aliases, far more than
   the distinct payloads of a hot fleet. *)
let alias_bytes = 64 * 1024

let create ?(config = default_config) () : t =
  { cfg = config;
    cache = Cache.create ~shards:config.shards ~shard_bytes:config.shard_bytes ();
    aliases = Cache.create ~shards:1 ~shard_bytes:alias_bytes ();
    ctr =
      { c_compile = 0; c_link = 0; c_run = 0; c_lint = 0; c_stats = 0;
        c_ping = 0; c_failed = 0; c_rejected = 0; c_timed_out = 0 };
    validation_rejects = 0;
    lat = Array.make lat_buckets 0;
    lat_count = 0;
    lat_max_us = 0;
    started = Unix.gettimeofday () }

let cache (t : t) : Cache.t = t.cache
let aliases (t : t) : Cache.t = t.aliases
let validation_rejects (t : t) : int = t.validation_rejects

let requests (t : t) : int =
  t.ctr.c_compile + t.ctr.c_link + t.ctr.c_run + t.ctr.c_lint + t.ctr.c_stats
  + t.ctr.c_ping

let timed_out (t : t) : int = t.ctr.c_timed_out

(* -- Module loading ----------------------------------------------------------- *)

let first_verify_error (m : Ir.modul) : string option =
  match Verify.verify_module m with
  | [] -> None
  | e :: _ -> Some (Fmt.str "%a" Verify.pp_error e)

(* The canonical digest of verified module [m] loaded from [payload],
   through the alias store.  The digest is a pure function of the
   payload bytes (the module name is blanked and encoding does not
   mutate), so an alias never goes stale and needs no eviction with
   any result entry; a corrupted alias fails the cache's integrity
   check and is recomputed. *)
let canonical_digest (t : t) (payload : string) (m : Ir.modul) : string =
  let alias = Llvm_bitcode.Digest.of_bytes payload in
  match Cache.find t.aliases alias with
  | Some digest -> digest
  | None ->
    let digest = Llvm_bitcode.Digest.of_module m in
    Cache.put t.aliases alias digest;
    digest

(* Parse and verify a payload and compute its canonical identity.  The
   canonical bytes are the encoder's output for the freshly loaded
   module, so textual and binary deliveries of the same program share
   a digest.  A payload that fails to load or verify is never aliased. *)
let load_payload (t : t) ~(what : string) (payload : string) :
    (Ir.modul * string, string) result =
  match Loader.of_bytes ~name:what payload with
  | Error e -> Error e
  | Ok m -> (
    match first_verify_error m with
    | Some e -> Error (Fmt.str "%s: verification failed: %s" what e)
    | None -> Ok (m, canonical_digest t payload m))

(* -- Pipelines ----------------------------------------------------------------- *)

(* Raised at a pass boundary when the request's wall-clock budget is
   spent; [handle] turns it into a [Timed_out] response.  Enforcement
   is cooperative — a single pass runs to completion — so the daemon
   additionally hard-kills a worker that blows far past its deadline. *)
exception Deadline_expired

let check_deadline (deadline : float option) : unit =
  match deadline with
  | Some d when Unix.gettimeofday () > d -> raise Deadline_expired
  | _ -> ()

(* Pass-by-pass pipeline execution.  [Pass.run_sequence] is a fold of
   [run_pass], so running the same list here is behaviour-identical to
   [Pipelines.optimize_module] — but between passes we get a seam to
   check the deadline and to fire injected faults. *)
let run_passes ~(deadline : float option)
    (passes : Llvm_transforms.Pass.t list) (m : Ir.modul) : unit =
  Faults.pipeline_start ();
  List.iter
    (fun p ->
      check_deadline deadline;
      ignore (Llvm_transforms.Pass.run_pass p m);
      Faults.pass_boundary ())
    passes

let run_pipeline ~(deadline : float option) (spec : Protocol.pipeline)
    (m : Ir.modul) : (unit, string) result =
  match spec with
  | Protocol.Level l ->
    run_passes ~deadline (Llvm_transforms.Pipelines.level_passes l) m;
    Ok ()
  | Protocol.Passes names ->
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match Llvm_transforms.Pass.find name with
        | None -> Error (Fmt.str "unknown pass %S" name)
        | Some p -> resolve (p :: acc) rest)
    in
    Result.map (fun ps -> run_passes ~deadline ps m) (resolve [] names)

(* -- Translation-validation witness ------------------------------------------- *)

(* Replays [reference] (a freshly loaded module: the pipelines mutate
   in place) and [optimized] on the interpreter tier, unprofiled, and
   compares their behaviour: status plus program output.  Instruction
   counts are excluded — optimization changes them by design.  A module
   without [main] has no observable behaviour, so its witness is
   vacuously valid. *)
let check_witness (t : t) ~(reference : Ir.modul) ~(optimized : Ir.modul) :
    (unit, string) result =
  let run m =
    fst (Engine.run_main ~fuel:t.cfg.validate_fuel Engine.Interp_tier m)
  in
  match (Ir.find_func reference "main", Ir.find_func optimized "main") with
  | None, _ | _, None -> Ok ()
  | Some _, Some _ -> (
    match Interp.same_behaviour (run reference) (run optimized) with
    | None -> Ok ()
    | Some d -> Error ("reference vs optimized: " ^ d))

(* -- Request keys --------------------------------------------------------------- *)

(* A cacheable request after loading: the modules a miss computes
   from, the key its result lives under, and the affinity route the
   daemon picks a worker by.  Each request kind derives it in exactly
   one function below; [handle] and [probe] both call it, so the front
   cache and the workers agree on every key. *)
type 'a keyed = { input : 'a; key : string; route : string }

(* [--validate] forces the witness on every request. *)
let validating (t : t) (flag : bool) : bool = flag || t.cfg.validate

(* Validated results live under their own keys, so a validating
   request can only ever hit an entry that passed the witness. *)
let validated_key ~(validate : bool) (key : string) : string =
  if validate then key ^ "|v" else key

let compile_key (t : t) ~(validate : bool) (payload : string)
    (spec : Protocol.pipeline) : (Ir.modul keyed, string) result =
  Result.map
    (fun (m, digest) ->
      { input = m; route = digest;
        key =
          validated_key ~validate
            (digest ^ "|" ^ Protocol.pipeline_to_string spec) })
    (load_payload t ~what:"compile request" payload)

let lint_key (t : t) (payload : string) : (Ir.modul keyed, string) result =
  Result.map
    (fun (m, digest) -> { input = m; route = digest; key = digest ^ "|lint" })
    (load_payload t ~what:"lint request" payload)

(* Load a list of payloads; the digest of the set is the digest of the
   concatenated member digests (order-sensitive: link order matters). *)
let load_set (t : t) ~(what : string) (payloads : string list) :
    (Ir.modul list * string, string) result =
  let rec go acc digests = function
    | [] ->
      Ok
        ( List.rev acc,
          Llvm_bitcode.Digest.of_bytes (String.concat "+" (List.rev digests)) )
    | p :: rest -> (
      match load_payload t ~what p with
      | Error e -> Error e
      | Ok (m, d) -> go (m :: acc) (d :: digests) rest)
  in
  go [] [] payloads

type link_input = {
  apps : Ir.modul list;
  libs : Ir.modul list;
  libs_digest : string;
}

(* Every payload is loaded once here: the library digest is folded
   into the key and routes the request (IPO-once affinity), and the
   modules feed the pipelines on a miss. *)
let link_key (t : t) ~(validate : bool) (l : Protocol.link_req) :
    (link_input keyed, string) result =
  if l.Protocol.l_apps = [] then Error "link request with no modules"
  else
    match load_set t ~what:"link apps" l.Protocol.l_apps with
    | Error e -> Error e
    | Ok (apps, apps_digest) ->
      Result.map
        (fun (libs, libs_digest) ->
          let tag = if l.Protocol.l_libs = [] then "nolibs" else "libs" in
          { input = { apps; libs; libs_digest }; route = libs_digest;
            key =
              validated_key ~validate
                (Llvm_bitcode.Digest.of_bytes (apps_digest ^ "|" ^ libs_digest)
                ^ "|" ^ tag ^ "|link") })
        (load_set t ~what:"link libs" l.Protocol.l_libs)

(* -- The request path ----------------------------------------------------------- *)

let ms (t0 : float) : float = (Unix.gettimeofday () -. t0) *. 1000.0

let served (t : t) ~hit ~key ~pipeline_ms (payload : string) :
    Protocol.response =
  Protocol.Served
    { payload;
      metrics =
        { m_hit = hit; m_shard = Cache.shard_of t.cache key;
          m_pipeline_ms = pipeline_ms; m_bytes = String.length payload } }

let lookup (t : t) (key : string) : Protocol.response option =
  Option.map (served t ~hit:true ~key ~pipeline_ms:0.0) (Cache.find t.cache key)

(* Only [Served] payloads are cached: a rejection never is. *)
let install (t : t) ~(key : string) (resp : Protocol.response) : unit =
  match resp with
  | Protocol.Served { payload; _ } -> Cache.put t.cache key payload
  | _ -> ()

(* Look the key up; on a miss, [compute] returns the result bytes and
   its pipeline time (or the error response to send), and the result
   is installed under the key. *)
let answer (t : t) (keyed : ('a keyed, string) result)
    (compute : 'a -> (string * float, Protocol.response) result) :
    Protocol.response =
  match keyed with
  | Error e -> Protocol.Failed e
  | Ok { input; key; _ } -> (
    match lookup t key with
    | Some hit -> hit
    | None -> (
      match compute input with
      | Error resp -> resp
      | Ok (bytes, pipeline_ms) ->
        let resp = served t ~hit:false ~key ~pipeline_ms bytes in
        install t ~key resp;
        resp))

(* The tail of a compile or link miss once [what]'s pipeline has run
   over [optimized]: verify it, replay the witness against a freshly
   loaded [reference] when validating, and encode. *)
let finish (t : t) ~(deadline : float option) ~(t0 : float) ~(validate : bool)
    ~(what : string) ~(reference : unit -> (Ir.modul, string) result)
    (optimized : Ir.modul) : (string * float, Protocol.response) result =
  match first_verify_error optimized with
  | Some e ->
    Error
      (Protocol.Failed
         (Fmt.str "%s pipeline produced an invalid module (pass bug): %s" what
            e))
  | None -> (
    let pipeline_ms = ms t0 in
    check_deadline deadline;
    let witness =
      if not validate then Ok ()
      else
        Result.bind (reference ()) (fun reference ->
            check_witness t ~reference ~optimized)
    in
    match witness with
    | Error why ->
      t.validation_rejects <- t.validation_rejects + 1;
      Error
        (Protocol.Rejected
           (Fmt.str "translation validation failed for %s: %s" what why))
    | Ok () -> Ok (fst (Llvm_bitcode.Encoder.encode optimized), pipeline_ms))

(* -- Compile ------------------------------------------------------------------- *)

(* The compile core, shared with Run: returns the optimized bitcode for
   (payload, spec), going through the cache. *)
let compile_bytes (t : t) ~(deadline : float option) ~(validate : bool)
    (payload : string) (spec : Protocol.pipeline) : Protocol.response =
  let validate = validating t validate in
  answer t (compile_key t ~validate payload spec) (fun m ->
      let t0 = Unix.gettimeofday () in
      match run_pipeline ~deadline spec m with
      | Error e -> Error (Protocol.Failed e)
      | Ok () ->
        finish t ~deadline ~t0 ~validate
          ~what:(Protocol.pipeline_to_string spec)
          ~reference:(fun () -> Loader.of_bytes ~name:"reference" payload)
          m)

(* -- Link ---------------------------------------------------------------------- *)

let link_modules ~(name : string) (mods : Ir.modul list) :
    (Ir.modul, string) result =
  match Llvm_linker.Link.link ~name mods with
  | exception Llvm_linker.Link.Link_error e -> Error ("link error: " ^ e)
  | m -> Ok m

(* One link-time IPO pipeline run per distinct library set, cached
   under the set digest: answering queued links that share a set in
   order runs IPO once.  [mods] are the library modules [link_key]
   loaded (consumed: the pipeline mutates in place), so a miss never
   re-parses the payloads. *)
let optimized_libs (t : t) ?deadline (mods : Ir.modul list)
    (libs_digest : string) : (Ir.modul, string) result =
  let key = libs_digest ^ "|libs-ipo" in
  let rebuild () =
    Result.bind (link_modules ~name:"libs" mods) (fun libm ->
        run_passes ~deadline Llvm_transforms.Pipelines.link_time_ipo libm;
        match first_verify_error libm with
        | Some e -> Error ("library IPO produced an invalid module: " ^ e)
        | None ->
          Cache.put t.cache key (fst (Llvm_bitcode.Encoder.encode libm));
          Ok libm)
  in
  match Cache.find t.cache key with
  | Some bytes -> (
    match Llvm_bitcode.Decoder.decode bytes with
    | m -> Ok m
    | exception Llvm_bitcode.Decoder.Malformed _ ->
      (* the image passed its checksum but does not decode (e.g. a bug
         wrote garbage under this key): self-heal by recomputing *)
      Cache.remove t.cache key;
      rebuild ())
  | None -> rebuild ()

let handle_link (t : t) ~(deadline : float option) (l : Protocol.link_req) :
    Protocol.response =
  let validate = validating t l.Protocol.l_validate in
  answer t (link_key t ~validate l) (fun { apps; libs; libs_digest } ->
      let t0 = Unix.gettimeofday () in
      let libm =
        if libs = [] then Ok []
        else
          Result.map
            (fun m -> [ m ])
            (optimized_libs t ?deadline libs libs_digest)
      in
      match
        Result.bind libm (fun libm ->
            link_modules ~name:"served" (apps @ libm))
      with
      | Error e -> Error (Protocol.Failed e)
      | Ok final ->
        run_passes ~deadline Llvm_transforms.Pipelines.per_module final;
        finish t ~deadline ~t0 ~validate ~what:"link"
          ~reference:(fun () ->
            (* everything re-loaded fresh, linked, never optimized *)
            Result.bind
              (load_set t ~what:"link reference"
                 (l.Protocol.l_apps @ l.Protocol.l_libs))
              (fun (mods, _) -> link_modules ~name:"reference" mods))
          final)

(* -- Run ------------------------------------------------------------------------ *)

let handle_run (t : t) ~(deadline : float option) (r : Protocol.run_req) :
    Protocol.response =
  match
    compile_bytes t ~deadline ~validate:false r.Protocol.r_payload
      r.Protocol.r_pipeline
  with
  | (Protocol.Failed _ | Protocol.Rejected _ | Protocol.Timed_out _
    | Protocol.Busy _) as e ->
    e
  | Protocol.Served { payload = bytes; metrics } -> (
    check_deadline deadline;
    match Llvm_bitcode.Decoder.decode bytes with
    | exception Llvm_bitcode.Decoder.Malformed e ->
      Protocol.Failed ("corrupt optimized image: " ^ e)
    | m ->
      let result, _ =
        Engine.run_main ~fuel:r.Protocol.r_fuel r.Protocol.r_engine m
      in
      let status =
        match result.Interp.status with
        | `Returned _ -> "returned"
        | `Exited _ -> "exited"
        | `Unwound -> "unwound"
        | `Trapped msg -> "trapped: " ^ msg
      in
      let reply =
        Protocol.encode_run_reply
          { Protocol.status; exit_code = Interp.exit_code result;
            output = result.Interp.output;
            instructions = result.Interp.instructions }
      in
      Protocol.Served { payload = reply; metrics })

(* -- Lint ----------------------------------------------------------------------- *)

let handle_lint (t : t) (payload : string) : Protocol.response =
  answer t (lint_key t payload) (fun m ->
      let t0 = Unix.gettimeofday () in
      let diags = Llvm_analysis.Lint.run m in
      let text =
        String.concat "\n" (List.map Llvm_analysis.Lint.diag_to_json diags)
      in
      Ok (text, ms t0))

(* -- Stats ----------------------------------------------------------------------- *)

let record_latency (t : t) (seconds : float) : unit =
  let us = max 1 (int_of_float (seconds *. 1e6)) in
  let bucket = min (lat_buckets - 1) (int_of_float (Float.log2 (float_of_int us))) in
  t.lat.(bucket) <- t.lat.(bucket) + 1;
  t.lat_count <- t.lat_count + 1;
  if us > t.lat_max_us then t.lat_max_us <- us

(* Quantile estimate from the log2 histogram: the upper bound of the
   bucket where the cumulative count crosses q. *)
let latency_quantile_ms (t : t) (q : float) : float =
  if t.lat_count = 0 then 0.0
  else begin
    let target =
      int_of_float (Float.round (q *. float_of_int t.lat_count))
    in
    let target = max 1 target in
    let acc = ref 0 and result = ref (float_of_int t.lat_max_us /. 1000.0) in
    (try
       for b = 0 to lat_buckets - 1 do
         acc := !acc + t.lat.(b);
         if !acc >= target then begin
           result := float_of_int (1 lsl (b + 1)) /. 1000.0;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

(* [extra] members follow the server's own counters — the daemon adds
   its supervision state (workers, restarts, shed counts, breaker). *)
let stats_json ?(extra : (string * Llvm_json.Json.t) list = []) (t : t) :
    string =
  let open Llvm_json.Json in
  let shard k (s : Cache.shard_stats) =
    let rate =
      if s.Cache.s_hits + s.Cache.s_misses = 0 then 0.0
      else
        float_of_int s.Cache.s_hits
        /. float_of_int (s.Cache.s_hits + s.Cache.s_misses)
    in
    Obj
      [ ("shard", Int k); ("entries", Int s.Cache.s_entries);
        ("bytes", Int s.Cache.s_bytes); ("budget", Int s.Cache.s_budget);
        ("hits", Int s.Cache.s_hits); ("misses", Int s.Cache.s_misses);
        ("puts", Int s.Cache.s_puts); ("evictions", Int s.Cache.s_evictions);
        ("oversize", Int s.Cache.s_oversize);
        ("corrupt", Int s.Cache.s_corrupt); ("hit_rate", fixed 4 rate) ]
  in
  to_string
    (Obj
       ([ ("uptime_s", fixed 3 (Unix.gettimeofday () -. t.started));
          ( "requests",
            Obj
              [ ("compile", Int t.ctr.c_compile); ("link", Int t.ctr.c_link);
                ("run", Int t.ctr.c_run); ("lint", Int t.ctr.c_lint);
                ("stats", Int t.ctr.c_stats); ("ping", Int t.ctr.c_ping);
                ("total", Int (requests t)); ("failed", Int t.ctr.c_failed);
                ("rejected", Int t.ctr.c_rejected);
                ("timed_out", Int t.ctr.c_timed_out) ] );
          ("validation_rejects", Int t.validation_rejects);
          ( "cache",
            Obj
              [ ("hit_rate", fixed 4 (Cache.hit_rate t.cache));
                ("hits", Int (Cache.hits t.cache));
                ("misses", Int (Cache.misses t.cache));
                ("evictions", Int (Cache.evictions t.cache));
                ("entries", Int (Cache.entries t.cache));
                ("bytes", Int (Cache.bytes t.cache));
                ("corrupt", Int (Cache.corrupt t.cache));
                ( "aliases",
                  Obj
                    [ ("hits", Int (Cache.hits t.aliases));
                      ("misses", Int (Cache.misses t.aliases));
                      ("entries", Int (Cache.entries t.aliases));
                      ("bytes", Int (Cache.bytes t.aliases)) ] );
                ( "shards",
                  List
                    (Array.to_list
                       (Array.mapi shard (Cache.shard_stats t.cache))) ) ] );
          ( "latency",
            Obj
              [ ("count", Int t.lat_count);
                ("p50_ms", fixed 3 (latency_quantile_ms t 0.50));
                ("p90_ms", fixed 3 (latency_quantile_ms t 0.90));
                ("p99_ms", fixed 3 (latency_quantile_ms t 0.99));
                ("max_ms", fixed 3 (float_of_int t.lat_max_us /. 1000.0)) ] ) ]
       @ extra))

(* -- Dispatch ------------------------------------------------------------------- *)

let do_handle (t : t) ~(deadline : float option) (body : Protocol.body) :
    Protocol.response =
  match body with
  | Protocol.Compile c ->
    t.ctr.c_compile <- t.ctr.c_compile + 1;
    compile_bytes t ~deadline ~validate:c.Protocol.c_validate
      c.Protocol.c_payload c.Protocol.c_pipeline
  | Protocol.Link l ->
    t.ctr.c_link <- t.ctr.c_link + 1;
    handle_link t ~deadline l
  | Protocol.Run r ->
    t.ctr.c_run <- t.ctr.c_run + 1;
    handle_run t ~deadline r
  | Protocol.Lint payload ->
    t.ctr.c_lint <- t.ctr.c_lint + 1;
    handle_lint t payload
  | Protocol.Stats ->
    t.ctr.c_stats <- t.ctr.c_stats + 1;
    Protocol.Served
      { payload = stats_json t; metrics = Protocol.no_metrics }
  | Protocol.Ping ->
    t.ctr.c_ping <- t.ctr.c_ping + 1;
    Protocol.Served { payload = "pong"; metrics = Protocol.no_metrics }
  | Protocol.Shutdown ->
    (* acknowledged here; the daemon owns actually stopping *)
    Protocol.Served { payload = "shutting down"; metrics = Protocol.no_metrics }

(* The request's wall-clock budget, measured from now. *)
let deadline_of (req : Protocol.request) : float option =
  if req.Protocol.deadline_ms <= 0 then None
  else Some (Unix.gettimeofday () +. (float_of_int req.Protocol.deadline_ms /. 1000.0))

let handle (t : t) (req : Protocol.request) : Protocol.response =
  let t0 = Unix.gettimeofday () in
  let deadline = deadline_of req in
  (* a request must never take the daemon down: anything a handler
     fails to turn into a clean error becomes a Failed response *)
  let resp =
    try do_handle t ~deadline req.Protocol.body with
    | Deadline_expired ->
      Protocol.Timed_out
        (Fmt.str "deadline of %d ms expired" req.Protocol.deadline_ms)
    | e -> Protocol.Failed ("internal error: " ^ Printexc.to_string e)
  in
  record_latency t (Unix.gettimeofday () -. t0);
  (match resp with
  | Protocol.Failed _ -> t.ctr.c_failed <- t.ctr.c_failed + 1
  | Protocol.Rejected _ -> t.ctr.c_rejected <- t.ctr.c_rejected + 1
  | Protocol.Timed_out _ -> t.ctr.c_timed_out <- t.ctr.c_timed_out + 1
  | Protocol.Served _ | Protocol.Busy _ -> ());
  resp

(* -- Cache probing (worker supervision support) --------------------------------- *)

(* With forked workers the daemon keeps a "front" server whose cache
   spans all workers: before dispatching, it probes here — a [Hit] is
   answered without touching a worker (and is the only thing served in
   degraded mode); a [Miss] carries the key under which the daemon
   should [install] the worker's result.  [route] is an affinity hint:
   requests sharing it go to the same worker, so link-time IPO still
   runs once per library set in that worker's local cache. *)
type probe =
  | Hit of Protocol.response
  | Miss of { key : string; route : string option }
  | Uncached of { route : string option }

let do_probe (t : t) (body : Protocol.body) : probe =
  let look = function
    | Error _ -> Uncached { route = None }
    | Ok { key; route; _ } -> (
      match lookup t key with
      | Some hit -> Hit hit
      | None -> Miss { key; route = Some route })
  in
  match body with
  | Protocol.Compile c ->
    look
      (compile_key t
         ~validate:(validating t c.Protocol.c_validate)
         c.Protocol.c_payload c.Protocol.c_pipeline)
  | Protocol.Lint payload -> look (lint_key t payload)
  | Protocol.Link l ->
    look (link_key t ~validate:(validating t l.Protocol.l_validate) l)
  | Protocol.Run r ->
    (* execution is never served from the front cache: the optimized
       image may be cached, but running it must happen in a worker *)
    Uncached { route = Some (Llvm_bitcode.Digest.of_bytes r.Protocol.r_payload) }
  | Protocol.Stats | Protocol.Ping | Protocol.Shutdown ->
    Uncached { route = None }

let probe (t : t) (req : Protocol.request) : probe =
  (* probing parses untrusted payloads in the daemon process: any
     escape (stack overflow on a pathological input, say) must degrade
     to "not cached", never take the accept loop down *)
  try do_probe t req.Protocol.body with _ -> Uncached { route = None }
