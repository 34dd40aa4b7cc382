(* The lifelong workload: the paper's Figure 4 loop, in-process, under
   lli's default Tiered engine, over the full-size roster (15 SPEC-like
   and 4 Olden/Ptrdist genprog programs plus the 5 exception programs).

   1. Field: one-shot runs from the shipped -O2 module's bitcode bytes,
      as [lli --emit-profile] does: load, verify, fresh engine, poke the
      input, run main, serialize the profile.  Whole roster cycles.
   2. Idle time: decode the .llpf bytes, merge them, and run
      [Pgo.optimize] on a fresh copy of each program.
   3. Redeploy: one-shot runs of the reoptimized module with the
      aggregate as layout profile ([lli --use-profile]) on held-out
      inputs, each checked against the shipped module's behaviour.
   4. Steady: one engine per reoptimized program, warmed up past
      promotion, then [main] repeated.

   Whole-module range analysis is forced lazily by the first promotion,
   inside a one-shot run's time; steady timing starts only after
   warm-up, so the two stay separate. *)

open Llvm_ir
open Llvm_workloads
module Engine = Llvm_exec.Engine
module Interp = Llvm_exec.Interp
module Profile = Llvm_profile.Profile
module T = Trace

let fuel = 1_000_000_000

(* -- inputs ------------------------------------------------------------------- *)

type prog = { name : string; shipped : string  (** -O2 bitcode *) }

let ship (m : Ir.modul) : string =
  Llvm_transforms.Pipelines.optimize_module ~level:2 m;
  fst (Llvm_bitcode.Encoder.encode m)

let roster () : prog array =
  Array.of_list
    (List.map
       (fun p -> { name = p.Genprog.p_name; shipped = ship (Genprog.compile p) })
       (Spec.spec2000 @ Spec.disciplined)
    @ List.map
        (fun (name, src) -> { name; shipped = ship (Ehprog.compile name src) })
        Ehprog.programs)

(* Field inputs follow [Fleet.zipf_schedule]: rank k of [distinct]
   carries weight ~ 1/k.  The seed maps ranks to input values and
   draws each field run's rank by weight; the held-out inputs are
   values no rank uses. *)
type schedule = {
  values : int array;  (** rank -> input value *)
  cum : int array;  (** cumulative schedule weights *)
  holdout : int array;
}

let distinct = 8
let value_space = 64

let schedule ~(seed : int) : schedule =
  let rng = Rng.create (0x11fe + seed) in
  let pool = Array.init value_space (fun i -> i + 1) in
  for i = value_space - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- t
  done;
  let weights = List.map snd (Llvm_linker.Fleet.zipf_schedule ~distinct ~total:1000) in
  let acc = ref 0 in
  { values = Array.sub pool 0 distinct;
    cum = Array.of_list (List.map (fun w -> acc := !acc + w; !acc) weights);
    holdout = Array.sub pool distinct 2 }

let draw (s : schedule) (rng : Rng.t) : int =
  let total = s.cum.(Array.length s.cum - 1) in
  let u = Rng.int rng total in
  let rec find k = if u < s.cum.(k) then k else find (k + 1) in
  s.values.(find 0)

(* -- one-shot runs ---------------------------------------------------------------- *)

(* Write [value] into the program's environment global before main, as
   [Fleet.field_run] does; programs without one ignore their input. *)
let poke (mach : Interp.machine) (m : Ir.modul) (value : int) : unit =
  match Ir.find_gvar m Genprog.input_global with
  | None -> ()
  | Some g -> (
    match Hashtbl.find_opt mach.Interp.globals g.Ir.gid with
    | None -> ()
    | Some addr ->
      Interp.store_sized mach addr ~size:4
        (Interp.Rint (Ltype.Int, Int64.of_int value)))

type shot = {
  result : Interp.run_result;
  profile : string;  (** serialized .llpf bytes *)
  deopts : int;
  ranges_forced : bool;  (** the run promoted, so range analysis ran *)
}

let load (bytes : string) : Ir.modul =
  let m =
    T.span "loader" (fun () ->
        match Llvm_serve.Loader.of_bytes ~name:"lli" bytes with
        | Ok m -> m
        | Error e -> failwith e)
  in
  (match T.span "verify" (fun () -> Verify.verify_module m) with
  | [] -> ()
  | _ -> failwith "shipped module does not verify");
  m

(* One lli invocation.  The engine forces whole-module range analysis
   at the first promotion, inside main.  A traced run is told by its
   untraced twin ([force_ranges]) whether that happens, and then forces
   the analysis before main so it gets its own span; the functions the
   run promoted are compiled again from outside to time bytecode
   compilation. *)
let one_shot ?profile ?(force_ranges = false) (bytes : string) (input : int) :
    shot =
  let m = load bytes in
  let e =
    T.span "engine.create" (fun () ->
        Engine.create ~profiling:true ?profile Engine.Tiered m)
  in
  let mach = e.Engine.mach in
  poke mach m input;
  if force_ranges then
    ignore (T.span "range" (fun () -> Lazy.force e.Engine.ranges));
  let main = Option.get (Ir.find_func m "main") in
  let result = T.span "exec" (fun () -> Interp.run_function ~fuel mach main []) in
  let ranges_forced = Lazy.is_val e.Engine.ranges in
  if !T.on && ranges_forced then begin
    let ranges = Lazy.force e.Engine.ranges in
    T.span "bytecode" (fun () ->
        List.iter
          (fun (name, _) ->
            match Ir.find_func m name with
            | Some f ->
              let c = Llvm_exec.Bytecode.compile ~ranges ?profile mach f in
              T.count "bytecode.compiled_instrs"
                (float_of_int c.Llvm_exec.Bytecode.src_instrs)
            | None -> ())
          (Engine.promotions e))
  end;
  if !T.on then begin
    T.count "exec.instructions" (float_of_int result.Interp.instructions);
    T.count "exec.promotions" (float_of_int (List.length (Engine.promotions e)));
    T.count "exec.deopts" (float_of_int (Engine.deopts e));
    T.count "exec.deopt_falls" (float_of_int (Engine.deopt_falls e));
    T.count "exec.fast_ops" (float_of_int (Engine.fast_ops e))
  end;
  let p =
    T.span "profile.of_run" (fun () ->
        Profile.of_run m ~block_counts:mach.Interp.block_counts
          ~call_counts:mach.Interp.call_counts)
  in
  let profile_bytes = T.span "profile.codec" (fun () -> Profile.to_bytes p) in
  T.count "profile.bytes" (float_of_int (String.length profile_bytes));
  { result; profile = profile_bytes; deopts = Engine.deopts e; ranges_forced }

let status (r : Interp.run_result) : string =
  match r.Interp.status with
  | `Returned v -> Fmt.str "returned %a" Interp.pp_rtval v
  | `Unwound -> "unwound"
  | `Exited c -> Fmt.str "exited %d" c
  | `Trapped msg -> "trapped: " ^ msg

(* -- the loop ----------------------------------------------------------------------- *)

(* The loop interleaves its phases so that every metric samples the
   whole run: machine speed on a shared host drifts over seconds, and a
   metric measured in one short stretch would inherit that stretch's
   speed.  A bootstrap (three field cycles, one reoptimization of every
   program) is followed by rounds of: two field cycles, one redeploy
   cycle, the reoptimization of every program, and, in the first three
   rounds, the steady-state measurement of a third of the roster, so
   that every program's steady state is measured exactly once. *)
type plan = {
  seconds : float;  (** rounds continue until this much round time... *)
  min_field : int;
      (** ...and this many field runs; once there, rounds stop adding
          field cycles, so the latency percentiles always rank the same
          number of runs *)
  min_rounds : int;
  slice_calls : int;  (** timed steady calls of main per program *)
  extra_setups : int;
      (** set-ups repeated, one after each of the first rounds (at most
          [min_rounds]) *)
}

type pass_result = {
  field_ms : float array;
  field_by_prog : float list array;
  redeploy_ms : float array;
  reopt_s : float;  (** sum over programs of the median reoptimization *)
  steady_rate : float;  (** IR instructions per second *)
  rss_mb : float;  (** VmHWM after the first [min_rounds] rounds *)
  setup_s : float list;  (** the extra set-ups *)
  mismatches : int;
  ops : int;
  guard_execs : int;
  guard_fails : int;
  forced : bool list;
  wall_s : float;
}

let warmup_min = Engine.default_hot_threshold + 2

let bootstrap_cycles = 3

(* Each of the first [share] rounds measures the steady state of one
   share of the roster. *)
let share = 3

(* [forced] lists, in run order, whether each one-shot run of an
   untraced twin pass ran the range analysis; a traced pass replaying
   the same runs forces it up front exactly where the twin did. *)
let lifelong_pass ?(forced : bool list = []) ?(calib : Calib.t option)
    ~(setup : unit -> float) (progs : prog array) (sched : schedule)
    ~(seed : int) (plan : plan) : pass_result =
  let hints = ref forced and seen = ref [] in
  let shoot ?profile bytes input =
    let force_ranges =
      match !hints with
      | h :: rest ->
        hints := rest;
        h
      | [] -> false
    in
    let shot = one_shot ?profile ~force_ranges bytes input in
    seen := shot.ranges_forced :: !seen;
    shot
  in
  let rng = Rng.create (0xf1e1d + seed) in
  let n = Array.length progs in
  let t_pass = T.now_ns () in
  let rid = ref 0 in
  let next_rid () =
    incr rid;
    !rid
  in
  let ops = ref 0 in
  let tick () = Option.iter (fun c -> Calib.tick c (T.elapsed_s t_pass)) calib in
  (* field: one whole-roster cycle *)
  let field = ref [] and by_prog = Array.make n [] in
  let field_cycle ~(keep : string list array option) =
    Array.iteri
      (fun i p ->
        let input = draw sched rng in
        let t0 = T.now_ns () in
        let shot =
          T.span ~rid:(next_rid ()) "field" (fun () -> shoot p.shipped input)
        in
        let ms = T.elapsed_s t0 *. 1000.0 in
        incr ops;
        tick ();
        field := ms :: !field;
        by_prog.(i) <- ms :: by_prog.(i);
        Option.iter (fun k -> k.(i) <- shot.profile :: k.(i)) keep)
      progs
  in
  (* idle time: reoptimize program [i] from the bootstrap profiles on a
     fresh copy (decoded outside the timed part) *)
  let profiles = Array.make n [] in
  let reopt_times = Array.make n [] in
  let reoptimize i =
    let copy = Llvm_bitcode.Decoder.decode progs.(i).shipped in
    let t0 = T.now_ns () in
    let agg =
      T.span ~rid:(next_rid ()) "reopt" (fun () ->
          let agg = Profile.empty () in
          List.iter
            (fun bytes ->
              let p = T.span "profile.codec" (fun () -> Profile.of_bytes bytes) in
              T.span "profile.merge" (fun () -> Profile.merge agg p))
            profiles.(i);
          let st = T.span "pgo" (fun () -> Llvm_transforms.Pgo.optimize agg copy) in
          T.count "pgo.promoted" (float_of_int st.Llvm_transforms.Pgo.promoted);
          T.count "pgo.inlined" (float_of_int st.Llvm_transforms.Pgo.inlined);
          agg)
    in
    reopt_times.(i) <- T.elapsed_s t0 :: reopt_times.(i);
    incr ops;
    tick ();
    (copy, agg)
  in
  (* bootstrap *)
  for _ = 1 to bootstrap_cycles do
    field_cycle ~keep:(Some profiles)
  done;
  let reoptimized =
    Array.init n (fun i ->
        let m, agg = reoptimize i in
        if Verify.verify_module m <> [] then
          failwith (progs.(i).name ^ ": reoptimized module does not verify");
        (fst (Llvm_bitcode.Encoder.encode m), agg))
  in
  (* references: the shipped module on every held-out input *)
  let reference =
    Array.map
      (fun p ->
        Array.map
          (fun input ->
            let was = !T.on in
            T.on := false;
            let s = one_shot p.shipped input in
            T.on := was;
            ( status s.result,
              s.result.Interp.output,
              Profile.total_calls (Profile.of_bytes s.profile) ))
          sched.holdout)
      progs
  in
  let redeploy = ref [] and mismatches = ref 0 in
  let guard_execs = ref 0 and guard_fails = ref 0 in
  let redeploy_cycle round =
    let h = round mod Array.length sched.holdout in
    Array.iteri
      (fun i p ->
        let bytes, agg = reoptimized.(i) in
        let t0 = T.now_ns () in
        let shot =
          T.span ~rid:(next_rid ()) "redeploy" (fun () ->
              shoot ~profile:agg bytes sched.holdout.(h))
        in
        redeploy := (T.elapsed_s t0 *. 1000.0) :: !redeploy;
        incr ops;
        tick ();
        let want_status, want_out, calls = reference.(i).(h) in
        guard_execs := !guard_execs + calls;
        guard_fails := !guard_fails + shot.deopts;
        if status shot.result <> want_status || shot.result.Interp.output <> want_out
        then begin
          incr mismatches;
          Printf.eprintf "MISMATCH: reoptimized %s on input %d: %s, expected %s\n%!"
            p.name sched.holdout.(h) (status shot.result) want_status
        end)
      progs
  in
  (* steady state of program [i]: a fresh engine, warmed up until
     promotion has settled, then [slice_calls] timed calls of main.  One
     engine lives at a time: every call grows its program's heap. *)
  let instrs = ref 0 and steady_time = ref 0.0 in
  let steady i =
    let bytes, agg = reoptimized.(i) in
    let m = Llvm_bitcode.Decoder.decode bytes in
    let e = Engine.create ~profile:agg Engine.Tiered m in
    let mach = e.Engine.mach in
    poke mach m sched.holdout.(0);
    let main = Option.get (Ir.find_func m "main") in
    let invoke () =
      Buffer.clear mach.Interp.out;
      Interp.run_function ~fuel mach main []
    in
    let rec warm k last =
      ignore (invoke ());
      let now = Engine.compiled_count e in
      if k + 1 < warmup_min || now <> last then warm (k + 1) now
    in
    warm 0 (-1);
    T.span ~rid:(next_rid ()) "steady" (fun () ->
        let t0 = T.now_ns () in
        for _ = 1 to plan.slice_calls do
          let r = T.span "exec" invoke in
          instrs := !instrs + r.Interp.instructions;
          T.count "exec.instructions" (float_of_int r.Interp.instructions)
        done;
        steady_time := !steady_time +. T.elapsed_s t0);
    tick ()
  in
  (* rounds *)
  let setups = ref [] and round = ref 0 and round_time = ref 0.0 in
  let rss = ref 0.0 in
  while
    !round_time < plan.seconds
    || List.length !field < plan.min_field
    || !round < plan.min_rounds
  do
    let t0 = T.now_ns () in
    for _ = 1 to 2 do
      if List.length !field < plan.min_field then field_cycle ~keep:None
    done;
    redeploy_cycle !round;
    Array.iteri
      (fun i _ ->
        ignore (reoptimize i);
        if !round < share && i mod share = !round then steady i)
      progs;
    incr round;
    round_time := !round_time +. T.elapsed_s t0;
    if !round <= plan.extra_setups then setups := setup () :: !setups;
    (* peak RSS after fixed work, not after however many rounds the
       machine's speed allowed *)
    if !round = plan.min_rounds then rss := Stats.peak_rss_mb (Unix.getpid ())
  done;
  { field_ms = Array.of_list (List.rev !field);
    field_by_prog = Array.map List.rev by_prog;
    redeploy_ms = Array.of_list (List.rev !redeploy);
    reopt_s =
      Array.fold_left
        (fun acc ts -> acc +. Stats.median (Array.of_list ts))
        0.0 reopt_times;
    steady_rate = float_of_int !instrs /. !steady_time;
    rss_mb = !rss;
    setup_s = !setups;
    mismatches = !mismatches;
    ops = !ops;
    guard_execs = !guard_execs;
    guard_fails = !guard_fails;
    forced = List.rev !seen;
    wall_s = T.elapsed_s t_pass }

(* Set-up: generate, -O2 optimize and encode the roster, and build the
   input schedule. *)
let setup_once ~(seed : int) : prog array * schedule * float =
  Gc.compact ();
  let t0 = T.now_ns () in
  let progs = roster () in
  let sched = schedule ~seed in
  (progs, sched, T.elapsed_s t0)

let run ~(seed : int) ~(seconds : float) ~(traced : bool) : Outcome.t =
  let progs, sched, first = setup_once ~seed in
  let setup () =
    let _, _, dt = setup_once ~seed in
    dt
  in
  let values = Hashtbl.create 128 in
  let set = Hashtbl.replace values in
  let tail_q = 0.95 in
  if not traced then begin
    let plan =
      { seconds; min_field = Stats.samples_needed tail_q;
        min_rounds = share; slice_calls = 30;
        extra_setups = 2 }
    in
    let calib = Calib.create ~every_s:0.1 in
    let r = lifelong_pass ~calib ~setup progs sched ~seed plan in
    Report.set_normalized values ~slowdown:(Calib.slowdown calib)
      [ ("setup_s", Stats.median (Array.of_list (first :: r.setup_s)));
        ("throughput_per_s", r.steady_rate);
        ("latency_p50_ms", Stats.median r.field_ms);
        ("latency_tail_ms", Stats.supported_percentile r.field_ms tail_q);
        ("offline_s", r.reopt_s);
        ("peak_rss_mb", r.rss_mb) ];
    { Outcome.correct = r.mismatches = 0; attempted = r.ops;
      failed = r.mismatches; values }
  end
  else begin
    (* identical fixed work twice: untraced, then traced *)
    let plan =
      { seconds = 0.0; min_field = 5 * Array.length progs; min_rounds = share;
        slice_calls = 3; extra_setups = 0 }
    in
    let plain = lifelong_pass ~setup progs sched ~seed plan in
    T.reset ();
    T.on := true;
    let gc0 = Gc.quick_stat () in
    let r = lifelong_pass ~forced:plain.forced ~setup progs sched ~seed plan in
    let gc1 = Gc.quick_stat () in
    T.on := false;
    let spans = T.spans () in
    T.write_chrome (Outdir.trace_file ~workload:"lifelong" ~seed) spans;
    Report.from_trace spans values;
    set "range.field_share" (Trace.share_under ~root:"field" spans "range");
    Array.iteri
      (fun i p ->
        set ("prog." ^ p.name ^ ".lli_run_ms")
          (Stats.median (Array.of_list plain.field_by_prog.(i))))
      progs;
    set "pgo.run_p50_ms" (Stats.median plain.redeploy_ms);
    set "pgo.run_p95_ms" (Stats.percentile plain.redeploy_ms 0.95);
    set "pgo.guard_hit_ratio"
      (if r.guard_execs = 0 then 1.0
       else 1.0 -. (float_of_int r.guard_fails /. float_of_int r.guard_execs));
    set "trace.overhead_ratio" (r.wall_s /. plain.wall_s);
    set "gc.minor_words_per_op"
      ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int r.ops);
    set "gc.major_collections"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    set "failed_ratio"
      (float_of_int (plain.mismatches + r.mismatches)
      /. float_of_int (plain.ops + r.ops));
    { Outcome.correct = plain.mismatches = 0 && r.mismatches = 0;
      attempted = plain.ops + r.ops;
      failed = plain.mismatches + r.mismatches; values }
  end
