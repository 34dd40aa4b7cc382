(* Where a run leaves its files, inside the checkout it runs from: the
   daemon socket (a relative path, so long checkout paths cannot
   overflow a socket address) and the Chrome trace of a traced run. *)

let dir = ".perfbench"

let ensure () = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let trace_file ~(workload : string) ~(seed : int) : string =
  Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed)
