(* The differential fuzzing driver.

   One seed's work: generate, judge against every oracle, then mutate
   along [c_paths] independent reproducible chains and judge each
   mutant again.  Every Fail becomes a [failure] record; with
   [c_reduce] the failing module is first shrunk by the delta reducer,
   and with [c_corpus] the (possibly minimized) repro is written out
   as a commented .ll file that the asm parser reads back verbatim. *)

type config = {
  c_oracles : Oracle.t list;
  c_paths : int;
  c_mut_count : int;
  c_reduce : bool;
  c_corpus : string option;
}

let default_config =
  { c_oracles = Oracle.all;
    c_paths = 2;
    c_mut_count = 3;
    c_reduce = true;
    c_corpus = None }

type failure = {
  fa_seed : int;
  fa_path : int;
  fa_mutations : string list;
  fa_oracle : string;
  fa_message : string;
  fa_instrs : int;
  fa_repro : string option;
}

type report = {
  r_seeds : int;
  r_checks : int;
  r_passed : int;
  r_failed : int;
  r_skipped : int;
  r_failures : failure list;
  r_mutations : int;
}

let empty_report =
  { r_seeds = 0; r_checks = 0; r_passed = 0; r_failed = 0; r_skipped = 0;
    r_failures = []; r_mutations = 0 }

let repro_contents ~seed ~path ~mutations ~oracle ~message m =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "; llvm_fuzz repro: oracle %s\n" oracle);
  Buffer.add_string buf
    (Printf.sprintf "; seed %d, mutation path %d%s\n" seed path
       (match mutations with
       | [] -> " (pristine)"
       | ms -> " [" ^ String.concat ", " ms ^ "]"));
  List.iter
    (fun line -> Buffer.add_string buf ("; " ^ line ^ "\n"))
    (String.split_on_char '\n' message);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Llvm_ir.Printer.module_to_string m);
  Buffer.contents buf

let ensure_dir (dir : string) : unit =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let persist_repro (cfg : config) (fa : failure) (m : Llvm_ir.Ir.modul) :
    string option =
  match cfg.c_corpus with
  | None -> None
  | Some dir ->
    ensure_dir dir;
    let file =
      Filename.concat dir
        (Printf.sprintf "seed%d-p%d-%s.ll" fa.fa_seed fa.fa_path
           (String.map (fun c -> if c = ':' then '_' else c) fa.fa_oracle))
    in
    let oc = open_out file in
    output_string oc
      (repro_contents ~seed:fa.fa_seed ~path:fa.fa_path
         ~mutations:fa.fa_mutations ~oracle:fa.fa_oracle
         ~message:fa.fa_message m);
    close_out oc;
    Some file

(* Judge one concrete module (pristine or mutant) against the
   configured oracles, minimizing and persisting each failure. *)
let judge (cfg : config) (report : report) ~seed ~path ~mutations
    (m : Llvm_ir.Ir.modul) : report =
  List.fold_left
    (fun acc (o : Oracle.t) ->
      match o.Oracle.check m with
      | Oracle.Pass ->
        { acc with r_checks = acc.r_checks + 1; r_passed = acc.r_passed + 1 }
      | Oracle.Skip _ ->
        { acc with r_checks = acc.r_checks + 1; r_skipped = acc.r_skipped + 1 }
      | Oracle.Fail msg ->
        let repro_module, final_msg =
          if cfg.c_reduce then begin
            let reduced, _stats = Reduce.reduce ~oracle:o m in
            let msg' =
              match o.Oracle.check reduced with
              | Oracle.Fail m -> m
              | _ -> msg
            in
            (reduced, msg')
          end
          else (m, msg)
        in
        let fa =
          { fa_seed = seed;
            fa_path = path;
            fa_mutations = mutations;
            fa_oracle = o.Oracle.o_name;
            fa_message = final_msg;
            fa_instrs = Llvm_ir.Ir.module_instr_count repro_module;
            fa_repro = None }
        in
        let fa = { fa with fa_repro = persist_repro cfg fa repro_module } in
        { acc with
          r_checks = acc.r_checks + 1;
          r_failed = acc.r_failed + 1;
          r_failures = fa :: acc.r_failures })
    report cfg.c_oracles

let run_seed (cfg : config) (report : report) (seed : int) : report =
  let m = Irgen.gen_module seed in
  let report = judge cfg report ~seed ~path:0 ~mutations:[] m in
  let rec paths report path =
    if path > cfg.c_paths then report
    else begin
      let mutant = Oracle.clone m in
      let mutations =
        Mutate.apply_chain ~seed ~path ~count:cfg.c_mut_count mutant
      in
      let report =
        { report with r_mutations = report.r_mutations + List.length mutations }
      in
      let report = judge cfg report ~seed ~path ~mutations mutant in
      paths report (path + 1)
    end
  in
  let report = paths report 1 in
  { report with r_seeds = report.r_seeds + 1 }

let run ?(progress = fun _ _ -> ()) ?(stop = fun () -> false) (cfg : config)
    ~first ~count : report =
  let report = ref empty_report in
  (try
     for seed = first to first + count - 1 do
       if stop () then raise Exit;
       report := run_seed cfg !report seed;
       progress seed !report
     done
   with Exit -> ());
  { !report with r_failures = List.rev !report.r_failures }

let report_json ~(elapsed : float) (r : report) :
    (string * Llvm_json.Json.t) list =
  let open Llvm_json.Json in
  let failure (fa : failure) =
    Obj
      [ ("seed", Int fa.fa_seed); ("path", Int fa.fa_path);
        ("oracle", String fa.fa_oracle);
        ("mutations", List (List.map (fun m -> String m) fa.fa_mutations));
        ("instrs", Int fa.fa_instrs); ("message", String fa.fa_message);
        ("repro", match fa.fa_repro with None -> Null | Some f -> String f) ]
  in
  [ ("seeds", Int r.r_seeds); ("checks", Int r.r_checks);
    ("passed", Int r.r_passed); ("failed", Int r.r_failed);
    ("skipped", Int r.r_skipped); ("mutations", Int r.r_mutations);
    ("elapsed_s", fixed 2 elapsed);
    ("failures", List (List.map failure r.r_failures)) ]
