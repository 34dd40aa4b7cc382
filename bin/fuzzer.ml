(* llvm-fuzz: the differential IR fuzzer.

   Generates modules over a seed range, judges each (and a configurable
   number of semantics-preserving mutants) against the selected
   oracles, minimizes any failure with the delta reducer and persists
   repros to a corpus directory.  Exits non-zero when any oracle
   failed.  --json prints a machine-readable report to stdout. *)

open Cmdliner

let resolve_oracles (names : string list) : Llvm_fuzz.Oracle.t list =
  match names with
  | [] -> Llvm_fuzz.Oracle.all
  | names ->
    List.map
      (fun n ->
        match Llvm_fuzz.Oracle.of_spec n with
        | Some o -> o
        | None ->
          Tool_common.fail "unknown oracle %S (have: %s, or pass:<name>)" n
            (String.concat ", "
               (List.map
                  (fun (o : Llvm_fuzz.Oracle.t) -> o.Llvm_fuzz.Oracle.o_name)
                  Llvm_fuzz.Oracle.all)))
      names

let run seed count oracle_names paths mut_count max_seconds corpus no_reduce
    json quiet =
  let cfg =
    { Llvm_fuzz.Fuzz.c_oracles = resolve_oracles oracle_names;
      c_paths = paths;
      c_mut_count = mut_count;
      c_reduce = not no_reduce;
      c_corpus = corpus }
  in
  let t0 = Unix.gettimeofday () in
  let stop () =
    match max_seconds with
    | None -> false
    | Some budget -> Unix.gettimeofday () -. t0 > budget
  in
  let progress s (r : Llvm_fuzz.Fuzz.report) =
    if (not quiet) && not json then
      if r.r_failed > 0 then
        Fmt.epr "seed %d: %d checks, %d FAILED@." s r.r_checks r.r_failed
      else if r.r_seeds mod 100 = 0 then
        Fmt.epr "seed %d: %d checks, all passing@." s r.r_checks
  in
  let report = Llvm_fuzz.Fuzz.run ~progress ~stop cfg ~first:seed ~count in
  let elapsed = Unix.gettimeofday () -. t0 in
  if json then
    print_endline
      (Llvm_json.Json.to_string
         (Llvm_json.Json.Obj (Llvm_fuzz.Fuzz.report_json ~elapsed report)))
  else begin
    Fmt.pr "fuzzed %d seeds (%d oracle checks) in %.1fs@." report.r_seeds
      report.r_checks elapsed;
    Fmt.pr "  passed %d, failed %d, skipped %d; %d mutations applied@."
      report.r_passed report.r_failed report.r_skipped report.r_mutations;
    List.iter
      (fun (fa : Llvm_fuzz.Fuzz.failure) ->
        Fmt.pr "  FAIL seed=%d path=%d oracle=%s (%d instrs)%s@.       %s@."
          fa.fa_seed fa.fa_path fa.fa_oracle fa.fa_instrs
          (match fa.fa_repro with None -> "" | Some f -> " -> " ^ f)
          fa.fa_message)
      report.r_failures
  end;
  if report.r_failed > 0 then exit 1

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"first seed")

let count =
  Arg.(value & opt int 100 & info [ "count"; "n" ] ~docv:"N" ~doc:"number of seeds")

let oracles =
  Arg.(
    value & opt_all string []
    & info [ "oracle" ] ~docv:"NAME"
        ~doc:
          "run only the named oracle (repeatable): verify, asm, bitcode, \
           exec, opt or pass:<registered-pass>; default all five")

let paths =
  Arg.(
    value & opt int 2
    & info [ "paths" ] ~docv:"N" ~doc:"mutation chains per seed (0 disables)")

let mut_count =
  Arg.(
    value & opt int 3
    & info [ "mutations" ] ~docv:"N" ~doc:"mutations per chain")

let max_seconds =
  Arg.(
    value & opt (some float) None
    & info [ "max-seconds" ] ~docv:"S" ~doc:"stop starting new seeds after $(docv)")

let corpus =
  Arg.(
    value & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR" ~doc:"write minimized repros into $(docv)")

let no_reduce =
  Arg.(value & flag & info [ "no-reduce" ] ~doc:"report failures unminimized")

let json = Arg.(value & flag & info [ "json" ] ~doc:"print a JSON report")
let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"no progress output")

let cmd =
  Cmd.v
    (Cmd.info "llvm-fuzz" ~doc:"differential fuzzer for the LLVM IR toolchain")
    Term.(
      const run $ seed $ count $ oracles $ paths $ mut_count $ max_seconds
      $ corpus $ no_reduce $ json $ quiet)

let () = exit (Cmd.eval cmd)
