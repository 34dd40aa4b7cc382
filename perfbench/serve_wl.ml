(* The serving workloads: one client, one connection, one outstanding
   request (closed loop) against a real llvmd.

   The daemon is this executable re-executed in daemon mode, so it
   starts from a fresh process image and its peak RSS is its own:
   [Daemon.serve] with the default daemon and server configs (no
   workers, pipelines run in the daemon process).

   Per request the client records its round trip.  A link batch sends
   its four frames before reading any reply; each member's latency runs
   from the batch's first send to that member's reply.  The measured
   window is the sum of exchanges, so client-side work between requests
   (side jobs, cold pool top-ups) is never counted as daemon time. *)

open Llvm_workloads
module P = Llvm_serve.Protocol
module D = Llvm_serve.Daemon

type kind = Hot | Cold

let name = function Hot -> "serve-hot" | Cold -> "serve-cold"

let daemon_flag = "--serve-daemon"

(* The body of the daemon process.  A watchdog thread turns the death
   of the benchmark process (even by SIGKILL) into the daemon's own
   graceful SIGTERM shutdown, so no daemon outlives its run. *)
let serve_daemon (socket : string) : unit =
  let parent = Unix.getppid () in
  ignore
    (Thread.create
       (fun () ->
         while Unix.getppid () = parent do
           Thread.delay 0.2
         done;
         Unix.kill (Unix.getpid ()) Sys.sigterm)
       ());
  D.serve ~socket Llvm_serve.Server.default_config

type daemon = { pid : int; socket : string }

let spawn ~(socket : string) : daemon =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  flush_all ();
  match Unix.fork () with
  | 0 -> (
    (* the last stdout line belongs to the parent's result *)
    try
      Unix.dup2 Unix.stderr Unix.stdout;
      Unix.execv Sys.executable_name
        [| Sys.executable_name; daemon_flag; socket |]
    with _ -> Unix._exit 127)
  | pid -> { pid; socket }

let alive (d : daemon) : bool =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let connect (d : daemon) : Unix.file_descr =
  let give_up = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match D.connect ~socket:d.socket with
    | fd -> fd
    | exception Unix.Unix_error _ ->
      if (not (alive d)) || Unix.gettimeofday () > give_up then
        failwith "llvmd did not come up";
      Unix.sleepf 0.005;
      go ()
  in
  go ()

(* Ask for a clean shutdown; kill if it does not exit in time.  Always
   reaps the process. *)
let stop (d : daemon) (fd : Unix.file_descr option) : unit =
  (match fd with
  | Some fd ->
    (try ignore (D.request fd (P.req P.Shutdown)) with _ -> ());
    D.close fd
  | None -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let give_up = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Unix.gettimeofday () > give_up then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

(* -- inputs ------------------------------------------------------------------- *)

type inputs = {
  mutable items : Traffic.item array;
  mutable nitems : int;
  libs : string array;
}

(* The fixed popularity ranking of the hot universe (seed-independent). *)
let ranking_seed = 0x5e12e

(* Cold pool: fresh modules for about the first third of a run (set-up
   repeats three times, so it stays short); the loop tops the pool up
   100 modules at a time, outside the measured window. *)
let cold_pool_size ~(seconds : float) = max 200 (int_of_float (seconds *. 25.0))

let grow_cold (inp : inputs) ~(seed : int) (n : int) : unit =
  let need = inp.nitems + n in
  if need > Array.length inp.items then begin
    let bigger = Array.make (max need (2 * Array.length inp.items)) inp.items.(0) in
    Array.blit inp.items 0 bigger 0 inp.nitems;
    inp.items <- bigger
  end;
  for k = inp.nitems to need - 1 do
    inp.items.(k) <- Traffic.cold_item ~seed k
  done;
  inp.nitems <- need

let make_inputs (kind : kind) ~(seed : int) ~(seconds : float) : inputs =
  let libs = Traffic.libsets () in
  match kind with
  | Hot ->
    let items = Traffic.hot_universe () in
    { items; nitems = Array.length items; libs }
  | Cold ->
    let inp = { items = [| Traffic.cold_item ~seed 0 |]; nitems = 1; libs } in
    grow_cold inp ~seed (cold_pool_size ~seconds - 1);
    inp

(* -- the measured loop ------------------------------------------------------------ *)

type sample = { s_item : int; s_fmt : Traffic.fmt; s_level : int; s_bytes : string }

type run = {
  lat_ms : float array;
  rss_mb : float;  (** daemon VmHWM after [rss_after] requests *)
  window_s : float;
  attempted : int;
  failed : int;
  ops : Traffic.op list;  (** in send order, for the replay *)
  served : string list;  (** MD5 of each response payload, request order *)
  samples : sample list;  (** compile responses for the direct-compile gate *)
}

let gate_cap = 40

(* The daemon's peak RSS is read after a fixed number of requests: its
   cache grows with every miss, so a reading at the end of a timed
   window would depend on how fast the machine was. *)
let rss_after = 1000

(* Side jobs run between exchanges once the measured window reaches
   their share of [seconds], so work measured apart from the loop
   (offline compiles, repeated set-ups) samples the same stretch of
   machine time as the loop does; leftovers run after the loop. *)
type job = { at : float; job : unit -> unit }

let drive ~(calib : Calib.t) (kind : kind) (inp : inputs) (d : daemon)
    (fd : Unix.file_descr) ~(seed : int) ~(seconds : float) ~(min_samples : int)
    ~(jobs : job list) : run =
  let jobs = ref (List.sort (fun a b -> compare a.at b.at) jobs) in
  let run_due window =
    let rec go () =
      match !jobs with
      | j :: rest when j.at *. seconds <= window ->
        jobs := rest;
        j.job ();
        go ()
      | _ -> ()
    in
    go ()
  in
  let st = Traffic.stream ~seed in
  let zipf = Traffic.zipf ~s:1.1 ~n:inp.nitems (Rng.create ranking_seed) in
  let gate_rng = Rng.create (0x9a7e + seed) in
  let pending = Queue.create () in
  let next_op () =
    match kind with
    | Hot ->
      if Queue.is_empty pending then
        List.iter
          (fun op -> Queue.add op pending)
          (Traffic.hot_session st zipf inp.items
             ~nlibs:(Array.length inp.libs));
      Queue.pop pending
    | Cold ->
      if st.Traffic.next_fresh >= inp.nitems then grow_cold inp ~seed 100;
      Traffic.cold_op st
  in
  (* the format whose miss created each (item, level) cache entry: a
     hit returns the bytes compiled from that delivery *)
  let creator : (int * int, Traffic.fmt) Hashtbl.t = Hashtbl.create 64 in
  let lats = ref [] and n = ref 0 and failed = ref 0 in
  let ops = ref [] and served = ref [] and samples = ref [] and nsamples = ref 0 in
  let window = ref 0.0 and rss = ref None in
  while !window < seconds || !n < min_samples do
    let op = next_op () in
    ops := op :: !ops;
    let reqs = Traffic.requests inp.items inp.libs op in
    let t0 = Trace.now_ns () in
    List.iter (D.send fd) reqs;
    let resps =
      List.map
        (fun _ ->
          let r = D.receive fd in
          (r, Trace.elapsed_s t0 *. 1000.0))
        reqs
    in
    window := !window +. Trace.elapsed_s t0;
    List.iter
      (fun (r, ms) ->
        incr n;
        match r with
        | Ok (P.Served { payload; _ }) ->
          lats := ms :: !lats;
          served := Digest.string payload :: !served
        | Ok _ | Error _ ->
          (* a failed request misses any latency limit: it is charged
             the whole run window *)
          incr failed;
          lats := (seconds *. 1000.0) :: !lats;
          served := "" :: !served)
      resps;
    (match (op, resps) with
    | ( (Traffic.Compile { item; fmt; _ } | Traffic.Run { item; fmt }),
        [ (Ok (P.Served { payload; metrics }), _) ] ) ->
      let level =
        match op with Traffic.Compile { level; _ } -> level | _ -> 2
      in
      if not metrics.P.m_hit then Hashtbl.replace creator (item, level) fmt;
      let is_compile = match op with Traffic.Compile _ -> true | _ -> false in
      if is_compile && !nsamples < gate_cap && Rng.chance gate_rng 4 then begin
        incr nsamples;
        let s_fmt =
          Option.value ~default:fmt (Hashtbl.find_opt creator (item, level))
        in
        samples :=
          { s_item = item; s_fmt; s_level = level; s_bytes = payload }
          :: !samples
      end
    | _ -> ());
    if !rss = None && !n >= rss_after then rss := Some (Stats.peak_rss_mb d.pid);
    Calib.tick calib !window;
    run_due !window
  done;
  let rss_mb =
    match !rss with Some mb -> mb | None -> Stats.peak_rss_mb d.pid
  in
  List.iter (fun j -> j.job ()) !jobs;
  { lat_ms = Array.of_list (List.rev !lats); rss_mb; window_s = !window;
    attempted = !n;
    failed = !failed; ops = List.rev !ops; served = List.rev !served;
    samples = List.rev !samples }

(* -- direct compiles: the gate and the offline metric ------------------------------ *)

(* [name] is the one the daemon loads compile payloads under: a textual
   module takes it as its module name, which the encoding carries. *)
let direct (payload : string) (level : int) : string =
  match Llvm_serve.Loader.of_bytes ~name:"compile request" payload with
  | Error e -> failwith ("direct compile: " ^ e)
  | Ok m ->
    Llvm_transforms.Pipelines.optimize_module ~level m;
    fst (Llvm_bitcode.Encoder.encode m)

(* Served bytes must equal a direct Loader -> Pipelines -> Encoder run
   on the payload that created the cache entry.  Returns mismatches. *)
let gate (inp : inputs) (samples : sample list) : int =
  List.fold_left
    (fun bad s ->
      let want = direct (Traffic.payload inp.items.(s.s_item) s.s_fmt) s.s_level in
      if String.equal want s.s_bytes then bad
      else begin
        Printf.eprintf "MISMATCH: served %s -O%d differs from a direct compile\n%!"
          inp.items.(s.s_item).Traffic.name s.s_level;
        bad + 1
      end)
    0 samples

(* Offline -O2 compile time of a fixed module set — the whole hot
   universe, or the first 45 modules of the cold pool: each module is
   compiled five times, as side jobs spread over the window, and the
   metric sums the per-module medians. *)
let offline_reps = 5

let offline_jobs (kind : kind) (inp : inputs) : job list * (unit -> float) =
  let set =
    match kind with
    | Hot -> Array.sub inp.items 0 inp.nitems
    | Cold -> Array.sub inp.items 0 (min 45 inp.nitems)
  in
  let m = Array.length set in
  let times = Array.make_matrix m offline_reps 0.0 in
  let njobs = m * offline_reps in
  let jobs =
    List.init njobs (fun k ->
        let i = k mod m and rep = k / m in
        { at = (float_of_int k +. 0.5) /. float_of_int njobs;
          job =
            (fun () ->
              let t0 = Trace.now_ns () in
              ignore (direct set.(i).Traffic.bc 2);
              times.(i).(rep) <- Trace.elapsed_s t0) })
  in
  (jobs, fun () -> Array.fold_left (fun acc ts -> acc +. Stats.median ts) 0.0 times)

(* -- traced replay ----------------------------------------------------------------- *)

let replay (inp : inputs) (ops : Traffic.op list) ~(traced : bool) :
    string list * float * Layers.t =
  let t = Layers.create () in
  Trace.reset ();
  Trace.on := traced;
  let t0 = Trace.now_ns () in
  let served =
    List.concat
      (List.mapi
         (fun rid op ->
           Trace.span ~rid "request" (fun () ->
               Layers.exchange t (Traffic.requests inp.items inp.libs op))
           |> List.map (function
                | P.Served { payload; _ } -> Digest.string payload
                | _ -> ""))
         ops)
  in
  let wall = Trace.elapsed_s t0 in
  Trace.on := false;
  (served, wall, t)

(* -- the workload --------------------------------------------------------------------- *)

let socket_path (k : int) =
  Filename.concat Outdir.dir (Printf.sprintf "llvmd-%d-%d.sock" (Unix.getpid ()) k)

(* Set-ups per run; a cold set-up generates the whole fresh pool. *)
let setup_reps = function Hot -> 5 | Cold -> 3

let run (kind : kind) ~(seed : int) ~(seconds : float) ~(traced : bool) :
    Outcome.t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Outdir.ensure ();
  (* setup: spawn the daemon, generate and ship the inputs, connect.
     The first set-up serves the run; the others, spread over the window
     as side jobs, make setup_s a median. *)
  let setup k =
    let t0 = Trace.now_ns () in
    let d = spawn ~socket:(socket_path k) in
    match
      let inp = make_inputs kind ~seed ~seconds in
      (inp, connect d)
    with
    | inp, fd -> (d, fd, inp, Trace.elapsed_s t0)
    | exception e ->
      stop d None;
      raise e
  in
  let d, fd, inp, first = setup 0 in
  let setup_times = ref [ first ] in
  let fd_ref = ref (Some fd) in
  Fun.protect ~finally:(fun () -> stop d !fd_ref) @@ fun () ->
  let extra_setup k =
    { at = float_of_int k /. float_of_int (setup_reps kind);
      job =
        (fun () ->
          let d', fd', _, dt = setup k in
          stop d' (Some fd');
          setup_times := dt :: !setup_times) }
  in
  let offline, offline_s = offline_jobs kind inp in
  let tail_q = match kind with Hot -> 0.99 | Cold -> 0.95 in
  let window = if traced then seconds /. 2.0 else seconds in
  let min_samples =
    if traced then 0 else max rss_after (Stats.samples_needed tail_q)
  in
  let jobs =
    if traced then []
    else offline @ List.init (setup_reps kind - 1) (fun k -> extra_setup (k + 1))
  in
  let calib = Calib.create ~every_s:0.1 in
  let r = drive ~calib kind inp d fd ~seed ~seconds:window ~min_samples ~jobs in
  stop d !fd_ref;
  fd_ref := None;
  let mismatches = gate inp r.samples in
  let values = Hashtbl.create 128 in
  let set = Hashtbl.replace values in
  let correct = ref (mismatches = 0 && r.failed = 0 && r.samples <> []) in
  if not traced then begin
    Report.set_normalized values ~slowdown:(Calib.slowdown calib)
      [ ("setup_s", Stats.median (Array.of_list !setup_times));
        ("throughput_per_s", float_of_int r.attempted /. r.window_s);
        ("latency_p50_ms", Stats.median r.lat_ms);
        ("latency_tail_ms", Stats.supported_percentile r.lat_ms tail_q);
        ("offline_s", offline_s ());
        ("peak_rss_mb", r.rss_mb) ]
  end
  else begin
    let _, untraced_wall, _ = replay inp r.ops ~traced:false in
    let gc0 = Gc.quick_stat () in
    let served, traced_wall, layers = replay inp r.ops ~traced:true in
    let gc1 = Gc.quick_stat () in
    if served <> r.served then begin
      prerr_endline "MISMATCH: in-process replay differs from what llvmd served";
      correct := false
    end;
    let spans = Trace.spans () in
    Trace.write_chrome (Outdir.trace_file ~workload:(name kind) ~seed) spans;
    Report.from_trace spans values;
    let cache = layers.Layers.cache in
    let module C = Llvm_serve.Cache in
    set "cache.hits" (float_of_int (C.hits cache));
    set "cache.misses" (float_of_int (C.misses cache));
    set "cache.hit_ratio" (C.hit_rate cache);
    set "cache.puts"
      (float_of_int
         (Array.fold_left (fun a s -> a + s.C.s_puts) 0 (C.shard_stats cache)));
    set "cache.evictions" (float_of_int (C.evictions cache));
    set "trace.overhead_ratio" (traced_wall /. untraced_wall);
    set "gc.minor_words_per_op"
      ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int r.attempted);
    set "gc.major_collections"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    set "failed_ratio" (float_of_int r.failed /. float_of_int r.attempted)
  end;
  { Outcome.correct = !correct; attempted = r.attempted; failed = r.failed;
    values }
