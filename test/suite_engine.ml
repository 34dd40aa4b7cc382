(* Differential tests for the tiered execution engine.

   The bytecode tier is only trustworthy if it is bit-for-bit
   indistinguishable from the interpreter: same status, same output,
   same dynamic instruction count (fuel), same block profile.  Every
   workload program — the genprog benchmarks, the exception-heavy
   programs, and randomly generated IR — runs under all three engine
   kinds and must agree on everything observable. *)

open Llvm_ir
open Llvm_exec
open Llvm_workloads

let fuel = 100_000_000

let run_kind (kind : Engine.kind) (m : Ir.modul) : Engine.observation =
  Engine.observe ~fuel kind m

(* Everything observable (status, output, instruction count, block
   profile) must match the interpreter tier; returns its observation. *)
let check_tiers_agree name (m : Ir.modul) : Engine.observation =
  let reference = run_kind Engine.Interp_tier m in
  List.iter
    (fun kind ->
      match Engine.same_run reference (run_kind kind m) with
      | Some d ->
        Alcotest.failf "%s: interp vs %s: %s" name (Engine.kind_name kind) d
      | None -> ())
    [ Engine.Bytecode_tier; Engine.Tiered ];
  reference

(* Divergence messages name the first field that differs and both
   values: observations of one run that differ in exactly one field. *)
let test_divergence_messages () =
  let m =
    Llvm_minic.Codegen.compile_string
      {| extern void print_int(int x);
         int main() {
           int acc = 0;
           for (int i = 0; i < 5; i++) acc = acc + i;
           print_int(acc);
           return 3;
         } |}
  in
  let o = run_kind Engine.Interp_tier m in
  let check what expected a b =
    Alcotest.(check (option string)) what expected (Engine.same_run a b)
  in
  check "identical runs" None o (run_kind Engine.Interp_tier m);
  check "identical across tiers" None o (run_kind Engine.Bytecode_tier m);
  Alcotest.(check string) "program output" "10" o.run.output;
  let with_run run = { o with Engine.run } in
  check "status"
    (Some "status: returned 3 vs trapped: boom")
    o
    (with_run { o.run with status = `Trapped "boom" });
  check "output"
    (Some {|output at byte 1 (lengths 2 vs 3): "0" vs "12"|})
    o
    (with_run { o.run with output = "112" });
  let n = o.run.instructions in
  check "instruction count"
    (Some (Fmt.str "instructions: %d vs %d" n (n + 1)))
    o
    (with_run { o.run with instructions = n + 1 });
  Alcotest.(check (option string)) "behaviour ignores instruction counts" None
    (Interp.same_behaviour o.run { o.run with instructions = n + 1 });
  let id, c = List.nth o.profile 1 in
  let bumped =
    List.map (fun (k, v) -> if k = id then (k, v + 2) else (k, v)) o.profile
  in
  check "block count"
    (Some (Fmt.str "block %d count: %d vs %d" id c (c + 2)))
    o
    { o with profile = bumped };
  check "block missing on one side"
    (Some (Fmt.str "block %d count: %d vs 0" id c))
    o
    { o with profile = List.remove_assoc id o.profile }

let test_genprog_differential () =
  List.iter
    (fun p ->
      let p = Spec.quick p in
      let snap = check_tiers_agree p.Genprog.p_name (Genprog.compile p) in
      Alcotest.(check bool)
        (p.Genprog.p_name ^ " produced a checksum")
        true
        (Astring_contains.contains snap.run.output "checksum="))
    (Spec.spec2000 @ Spec.disciplined)

let test_ehprog_differential () =
  List.iter
    (fun (name, src) -> ignore (check_tiers_agree name (Ehprog.compile name src)))
    Ehprog.programs

let test_ehprog_actually_throws () =
  (* the exception workloads must exercise unwinding, not just compile *)
  let name, src = List.hd Ehprog.programs in
  let m = Ehprog.compile name src in
  let has_invoke =
    List.exists
      (fun f ->
        List.exists
          (fun b -> List.exists (fun i -> i.Ir.iop = Ir.Invoke) b.Ir.instrs)
          f.Ir.fblocks)
      m.Ir.mfuncs
  in
  Alcotest.(check bool) (name ^ " contains invoke") true has_invoke;
  let unwinder =
    List.find (fun (n, _) -> n = "eh.unwind_off_main") Ehprog.programs
  in
  let m = Ehprog.compile (fst unwinder) (snd unwinder) in
  let snap = run_kind Engine.Bytecode_tier m in
  Alcotest.(check string) "uncaught exception unwinds" "unwound"
    (Interp.show_status snap.run)

let test_random_ir_differential () =
  for seed = 1 to 25 do
    let m = Llvm_fuzz.Irgen.gen_module seed in
    (match Verify.verify_module m with
    | [] -> ()
    | _ -> Alcotest.failf "seed %d generated invalid IR" seed);
    ignore (check_tiers_agree (Fmt.str "rand%d" seed) m)
  done

let test_optimized_ir_differential () =
  (* optimized IR has the phi/cfg shapes the front-end never emits *)
  for seed = 1 to 10 do
    let m = Llvm_fuzz.Irgen.gen_module seed in
    Llvm_transforms.Pipelines.optimize_module ~level:3 m;
    ignore (check_tiers_agree (Fmt.str "rand%d -O3" seed) m)
  done

let test_tiered_promotes_hot_functions () =
  let name, src = List.hd Ehprog.programs in
  (* risky() is called 600 times from main's loop *)
  let m = Ehprog.compile name src in
  let e = Engine.create Engine.Tiered m in
  let main = Option.get (Ir.find_func m "main") in
  let r = Interp.run_function ~fuel e.Engine.mach main [] in
  (match r.Interp.status with
  | `Returned _ -> ()
  | _ -> Alcotest.fail "tiered run failed");
  let promoted = List.map fst (Engine.promotions e) in
  Alcotest.(check bool) "risky promoted to bytecode" true
    (List.mem "risky" promoted);
  Alcotest.(check bool) "main not promoted (one entry)" false
    (List.mem "main" promoted);
  (* every promotion happened at the threshold exactly *)
  List.iter
    (fun (f, n) ->
      Alcotest.(check int) (f ^ " promoted at threshold") 8 n)
    (Engine.promotions e)

let test_interp_tier_never_compiles () =
  let p = Spec.quick (List.hd Spec.spec2000) in
  let m = Genprog.compile p in
  let e = Engine.create Engine.Interp_tier m in
  let main = Option.get (Ir.find_func m "main") in
  ignore (Interp.run_function ~fuel e.Engine.mach main []);
  Alcotest.(check int) "no bytecode compiled" 0 (Engine.compiled_count e)

(* Range-proven fast ops: the bytecode tier compiles in-bounds stack
   accesses and nonzero divisions to unguarded instructions, and the
   result must stay bit-for-bit identical to the checked tiers. *)
let test_fast_ops_compiled_and_agree () =
  let src =
    {| int main() {
         int a[10];
         int sum = 0;
         for (int i = 0; i < 10; i++) a[i] = i * i;
         for (int i = 0; i < 10; i++) sum = sum + a[i] / (i + 1);
         return sum;
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  (* ranges need SSA form to see the induction variable *)
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
  ignore (check_tiers_agree "fastops" m);
  let e = Engine.create Engine.Bytecode_tier m in
  ignore (Engine.compile_all e);
  Alcotest.(check bool) "some guarded ops compiled to fast variants" true
    (Engine.fast_ops e > 0)

let test_div_trap_in_all_tiers () =
  let src = {| int main() { int z = 0; return 10 / z; } |} in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
  let reference = check_tiers_agree "divtrap" m in
  Alcotest.(check bool) "division by zero still traps" true
    (Astring_contains.contains (Interp.show_status reference.run)
       "division by zero")

(* A fleet's merged profile must not depend on the tier that ran the
   field: block and call-target counts, persisted to disk and merged,
   serialize to the same .llpf bytes under every engine kind. *)
let check_llpf_tiers_agree name ~schedule (m : Ir.modul) =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "llpf_tiers_%d" (Unix.getpid ()))
  in
  let llpf kind =
    let rep =
      Llvm_linker.Fleet.simulate ~fuel ~kind ~input_global:Genprog.input_global
        ~dir ~schedule m
    in
    List.iter (fun (r : Llvm_linker.Fleet.run) -> Sys.remove r.file) rep.runs;
    Llvm_profile.Profile.to_bytes rep.aggregate
  in
  let reference = llpf Engine.Interp_tier in
  List.iter
    (fun kind ->
      Alcotest.(check string)
        (Fmt.str "%s: %s .llpf bytes" name (Engine.kind_name kind))
        reference (llpf kind))
    [ Engine.Bytecode_tier; Engine.Tiered ];
  Sys.rmdir dir;
  Llvm_profile.Profile.of_bytes reference

let test_llpf_tiers_agree () =
  let p = Spec.quick (List.hd Spec.spec2000) in
  let agg =
    check_llpf_tiers_agree p.Genprog.p_name
      ~schedule:(Llvm_linker.Fleet.zipf_schedule ~distinct:3 ~total:20)
      (Genprog.compile p)
  in
  Alcotest.(check bool) "genprog dispatchers recorded call targets" true
    (Llvm_profile.Profile.call_sites agg > 0);
  let name, src = List.hd Ehprog.programs in
  ignore (check_llpf_tiers_agree name ~schedule:[ (1, 1) ] (Ehprog.compile name src))

(* -- Speculative promotion and deoptimization ------------------------------

   A fleet profile promotes a biased indirect call into a guarded
   direct call (Pgo.promote); runs whose live target differs from the
   prediction must take the deopt arm, fall back to the interpreter
   tier, and still produce bit-identical observable behavior. *)

(* One instrumented interpreter run of a fresh copy of [src], keyed by
   name so it survives recompilation. *)
let train_profile (src : string) : Llvm_profile.Profile.t =
  let run =
    Llvm_linker.Fleet.field_run ~fuel ~kind:Engine.Interp_tier
      (Llvm_minic.Codegen.compile_string src)
  in
  (match run.result.status with
  | `Returned _ | `Exited _ -> ()
  | _ -> Alcotest.fail "training run did not complete");
  run.profile

(* Promote under the trained profile and check: the module stays valid,
   the tiers still agree with each other, and behavior is identical to
   the unspeculated module.  Returns (deopts, falls) from a bytecode
   run of the speculated module. *)
let check_speculation name (src : string) : int * int =
  let baseline = run_kind Engine.Interp_tier (Llvm_minic.Codegen.compile_string src) in
  let profile = train_profile src in
  let m = Llvm_minic.Codegen.compile_string src in
  let promoted = Llvm_transforms.Pgo.promote profile m in
  Alcotest.(check bool) (name ^ ": a site was promoted") true (promoted > 0);
  (match Verify.verify_module m with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "%s: speculated module invalid: %s: %s" name
      e.Verify.where e.Verify.what);
  let got = check_tiers_agree (name ^ " speculated") m in
  Option.iter
    (Alcotest.failf "%s: speculation changed behaviour: %s" name)
    (Interp.same_behaviour baseline.run got.run);
  let e = Engine.create Engine.Bytecode_tier m in
  let main = Option.get (Ir.find_func m "main") in
  ignore (Interp.run_function ~fuel e.Engine.mach main []);
  (Engine.deopts e, Engine.deopt_falls e)

let test_speculation_deopt_midrun () =
  (* 90 calls through [one], then the pointer flips to [big]: the guard
     must fail exactly 10 times and each failure must re-route the call
     to the interpreter tier *)
  let src =
    {| int one(int x) { return x + 1; }
       int big(int x) { return x * 7 - 2; }
       int main() {
         int (*)(int) f = one;
         int acc = 0;
         for (int i = 0; i < 100; i++) {
           if (i == 90) f = big;
           acc = acc + f(acc % 13 + i);
         }
         return acc & 127;
       } |}
  in
  let deopts, falls = check_speculation "midrun" src in
  Alcotest.(check int) "guard failed once per post-flip call" 10 deopts;
  Alcotest.(check int) "every deopt fell back to the interpreter" 10 falls

let test_speculation_deopt_monomorphic () =
  (* the profile's prediction always holds: no deopts at all *)
  let src =
    {| int only(int x) { return x * 3 + 1; }
       int main() {
         int (*)(int) f = only;
         int acc = 0;
         for (int i = 0; i < 50; i++) acc = acc + f(i);
         return acc & 127;
       } |}
  in
  let deopts, falls = check_speculation "mono" src in
  Alcotest.(check int) "no guard failures" 0 deopts;
  Alcotest.(check int) "no interpreter fallbacks" 0 falls

let test_speculation_deopt_invoke () =
  (* the indirect site sits inside a try block (an invoke), and the
     mispredicted target throws: the deopt arm's invoke must unwind
     into the original landing pad *)
  let src =
    {| extern void print_int(int x);
       int calm(int x) { return x + 2; }
       int boom(int x) { if (x % 3 == 0) throw x + 1; return x - 1; }
       int main() {
         int (*)(int) f = calm;
         int acc = 0;
         for (int i = 0; i < 120; i++) {
           if (i > 99) f = boom;
           try { acc = acc + f(i); } catch (int e) { acc = acc - e; }
         }
         print_int(acc);
         return acc & 63;
       } |}
  in
  let deopts, falls = check_speculation "invoke" src in
  Alcotest.(check int) "guard failed once per boom call" 20 deopts;
  Alcotest.(check int) "every deopt fell back to the interpreter" 20 falls

let tests =
  [ Alcotest.test_case "genprog workloads agree across tiers" `Slow
      test_genprog_differential;
    Alcotest.test_case "divergence messages name the field and both values"
      `Quick test_divergence_messages;
    Alcotest.test_case "exception workloads agree across tiers" `Quick
      test_ehprog_differential;
    Alcotest.test_case "exception workloads exercise unwinding" `Quick
      test_ehprog_actually_throws;
    Alcotest.test_case "random IR agrees across tiers" `Quick
      test_random_ir_differential;
    Alcotest.test_case "optimized random IR agrees across tiers" `Quick
      test_optimized_ir_differential;
    Alcotest.test_case "tiered engine promotes hot functions" `Quick
      test_tiered_promotes_hot_functions;
    Alcotest.test_case "interp tier never compiles" `Quick
      test_interp_tier_never_compiles;
    Alcotest.test_case "range-proven fast ops compile and agree" `Quick
      test_fast_ops_compiled_and_agree;
    Alcotest.test_case "division by zero traps in every tier" `Quick
      test_div_trap_in_all_tiers;
    Alcotest.test_case "merged field profiles serialize identically across tiers"
      `Quick test_llpf_tiers_agree;
    Alcotest.test_case "speculation deopts when the target flips mid-run"
      `Quick test_speculation_deopt_midrun;
    Alcotest.test_case "speculation never deopts on a monomorphic site"
      `Quick test_speculation_deopt_monomorphic;
    Alcotest.test_case "speculation deopts inside an invoke landing pad"
      `Quick test_speculation_deopt_invoke ]
