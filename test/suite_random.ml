(* Differential testing over randomly generated IR programs.

   For each seed, Llvm_fuzz.Irgen builds a structurally varied module
   (mixed integer kinds, diamonds, loops, switches, aggregates,
   globals, invoke/unwind, indirect calls).  The observable behaviour
   (main's return value) must be invariant under:
   - each optimization pass individually,
   - the -O2 and -O3 pipelines,
   - a round-trip through the textual representation,
   - a round-trip through the bitcode representation,
   - code lowering (isel + regalloc must not crash and must eliminate
     every phi and virtual register). *)

open Llvm_ir
open Llvm_transforms

let run (m : Ir.modul) : Llvm_exec.Interp.run_result =
  Llvm_exec.Interp.run_main ~fuel:5_000_000 m

let check_same what baseline got =
  Option.iter
    (QCheck.Test.fail_reportf "%s changed behaviour: %s" what)
    (Llvm_exec.Interp.same_behaviour baseline got)

let fresh seed = Llvm_fuzz.Irgen.gen_module seed

let check_verifies what (m : Ir.modul) =
  match Verify.verify_module m with
  | [] -> ()
  | errs ->
    QCheck.Test.fail_reportf "%s: invalid module:@.%a@.%s" what
      Fmt.(list Verify.pp_error)
      errs
      (Printer.module_to_string m)

let prop_generated_modules_valid seed =
  let m = fresh seed in
  check_verifies "generator" m;
  Llvm_analysis.Ssa_check.assert_ssa m;
  (* and they must run without trapping *)
  (match (run m).status with
  | `Trapped msg -> QCheck.Test.fail_reportf "generated program traps: %s" msg
  | _ -> ());
  true

let prop_passes_preserve seed =
  let baseline = run (fresh seed) in
  List.iter
    (fun (p : Pass.t) ->
      let m = fresh seed in
      ignore (Pass.run_pass p m);
      check_verifies p.Pass.name m;
      check_same ("pass " ^ p.Pass.name) baseline (run m))
    Pipelines.all_passes;
  true

let prop_pipelines_preserve seed =
  let baseline = run (fresh seed) in
  List.iter
    (fun level ->
      let m = fresh seed in
      Pipelines.optimize_module ~level m;
      let what = Printf.sprintf "-O%d" level in
      check_verifies what m;
      check_same what baseline (run m))
    [ 1; 2; 3 ];
  true

let prop_representations_roundtrip seed =
  let m = fresh seed in
  let text = Printer.module_to_string m in
  let reparsed = Llvm_asm.Parser.parse_module ~name:m.Ir.mname text in
  if Printer.module_to_string reparsed <> text then
    QCheck.Test.fail_reportf "textual round-trip not a fixpoint (seed %d)" seed;
  let image, _ = Llvm_bitcode.Encoder.encode m in
  let decoded = Llvm_bitcode.Decoder.decode image in
  if Printer.module_to_string decoded <> text then
    QCheck.Test.fail_reportf "bitcode round-trip not a fixpoint (seed %d)" seed;
  (* behaviour too, not just syntax *)
  let b0 = run m in
  check_same "textual round-trip" b0 (run reparsed);
  check_same "bitcode round-trip" b0 (run decoded);
  true

let prop_codegen_lowers seed =
  let m = fresh seed in
  Pipelines.optimize_module ~level:2 m;
  List.iter
    (fun t ->
      let r = Llvm_codegen.Emit.compile_module t m in
      if r.Llvm_codegen.Emit.code_bytes <= 0 then
        QCheck.Test.fail_reportf "%s produced no code" r.Llvm_codegen.Emit.target;
      (* no virtual registers may survive allocation *)
      List.iter
        (fun fa -> ignore fa.Llvm_codegen.Emit.fa_text)
        r.Llvm_codegen.Emit.funcs)
    Llvm_codegen.Target.targets;
  true

let seed_gen = QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 1_000_000)

(* LLVM_FUZZ_SEEDS overrides every per-property seed count, so CI (or a
   soak run) can turn the same suite into a longer fuzzing campaign. *)
let seeds_override =
  match Sys.getenv_opt "LLVM_FUZZ_SEEDS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> Some n
    | _ -> None)
  | None -> None

let qtest ?(count = 60) name prop =
  let count = match seeds_override with Some n -> n | None -> count in
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name seed_gen prop)

let tests =
  [ qtest "generated modules verify, are SSA, and run" prop_generated_modules_valid;
    qtest ~count:25 "every pass preserves behaviour" prop_passes_preserve;
    qtest ~count:25 "pipelines preserve behaviour" prop_pipelines_preserve;
    qtest ~count:40 "representations round-trip" prop_representations_roundtrip;
    qtest ~count:20 "codegen lowers optimized modules" prop_codegen_lowers ]
