(* perfbench: the repository's benchmark.

     main.exe --workload serve-hot|serve-cold|lifelong --seed N
              --seconds S --trace 0|1

   Untraced (--trace 0), prints the end-to-end metrics; traced
   (--trace 1), replays the same work with layer spans and prints the
   per-layer metrics, writing a Chrome trace under .perfbench/.  The
   last line of standard output is the JSON result; progress goes to
   standard error.  Exits 1 when a correctness gate fails and 2 on a
   usage error. *)

open Perfbench

exception Terminated

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-hot|serve-cold|lifelong --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; flag; socket ] when flag = Serve_wl.daemon_flag ->
    Serve_wl.serve_daemon socket
  | _ :: args ->
    let rec parse acc = function
      | [] -> acc
      | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--"
        ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    if seconds <= 0.0 then usage ();
    let workload = get "workload" in
    (* a terminated run still stops its daemon (Fun.protect in Serve_wl) *)
    List.iter
      (fun signal ->
        Sys.set_signal signal (Sys.Signal_handle (fun _ -> raise Terminated)))
      [ Sys.sigterm; Sys.sigint ];
    let outcome =
      match workload with
      | "serve-hot" -> Serve_wl.run Serve_wl.Hot ~seed ~seconds ~traced
      | "serve-cold" -> Serve_wl.run Serve_wl.Cold ~seed ~seconds ~traced
      | "lifelong" -> Lifelong_wl.run ~seed ~seconds ~traced
      | _ -> usage ()
      | exception Terminated ->
        prerr_endline "perfbench: terminated";
        exit 2
    in
    let schema = if traced then Report.per_layer else Report.end_to_end in
    if traced then Report.fill_missing schema outcome.Outcome.values;
    print_endline
      (Report.line ~correct:outcome.Outcome.correct
         ~attempted:outcome.Outcome.attempted ~failed:outcome.Outcome.failed
         ~schema outcome.Outcome.values);
    if not outcome.Outcome.correct then exit 1
  | [] -> usage ()
