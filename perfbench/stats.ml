(* Sample statistics for the benchmark's reports.

   Percentiles use the nearest-rank rule: the q-quantile of n sorted
   samples is the sample at rank ceil(q * n).  A percentile is only
   reported when at least [min_beyond] samples lie beyond that rank, so
   a p99 needs 1000 samples and a p95 needs 200. *)

let min_beyond = 10

let rank ~(n : int) (q : float) : int =
  max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

(* Samples strictly beyond the q-quantile's rank. *)
let beyond ~(n : int) (q : float) : int = n - rank ~n q

let supports ~(n : int) (q : float) : bool = beyond ~n q >= min_beyond

(* Smallest sample count for which [supports] holds. *)
let samples_needed (q : float) : int =
  let rec go n = if supports ~n q then n else go (n + 1) in
  go 1

(* Nearest-rank percentile of an unsorted sample (copied, then sorted). *)
let percentile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(rank ~n q - 1)

let median (xs : float array) : float = percentile xs 0.5

(* A percentile the sample must support; a shortfall is a benchmark bug,
   not a number to print. *)
let supported_percentile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if not (supports ~n q) then
    failwith
      (Printf.sprintf "p%g needs %d samples, only %d taken" (q *. 100.0)
         (samples_needed q) n);
  percentile xs q

(* Peak resident set size (VmHWM) of a live process, in MB. *)
let peak_rss_mb (pid : int) : float =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> None
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> Some (float_of_int kb /. 1024.0))
      else scan ()
  in
  let r = scan () in
  close_in ic;
  match r with
  | Some mb -> mb
  | None -> failwith (Printf.sprintf "no VmHWM for pid %d" pid)
