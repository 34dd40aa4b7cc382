(* Machine-speed calibration.

   On a shared host the speed of the same code drifts by tens of percent
   over minutes, with every tenant's load.  A run therefore samples a
   fixed probe — pure OCaml work (hashing, formatting, allocation,
   sorting, list traversal) that shares no code with the libraries
   under test — all through its measurement, and timings are reported
   at the reference speed: a time t becomes t * reference_s / probe,
   with probe the median probe time of the run.  A change to the
   libraries cannot move the probe, so it cannot hide in the
   normalization; the raw values go to standard error. *)

let work () : int =
  let tbl = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 1 to 10_000 do
    let k = i * 2654435761 land 0x3fff in
    let v = string_of_int k in
    Hashtbl.replace tbl k (v, i);
    acc := !acc + String.length v
  done;
  let arr = Array.init 5_000 (fun i -> i * 7919 land 0xfffff) in
  Array.sort compare arr;
  let l = List.rev_map (fun x -> x * 3) (List.init 5_000 Fun.id) in
  !acc + List.fold_left ( + ) 0 l + arr.(0) + Hashtbl.length tbl

(* Probe time at the reference speed, in seconds. *)
let reference_s = 0.006

type t = { mutable samples : float list; every_s : float; mutable next : float }

(* [create ~every_s] probes whenever [tick] sees another [every_s] of
   measured time. *)
let create ~(every_s : float) : t = { samples = []; every_s; next = 0.0 }

let probe (c : t) : unit =
  let t0 = Trace.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  c.samples <- Trace.elapsed_s t0 :: c.samples

let tick (c : t) (measured_s : float) : unit =
  if measured_s >= c.next then begin
    probe c;
    c.next <- measured_s +. c.every_s
  end

(* How much slower than the reference this run's machine was. *)
let slowdown (c : t) : float =
  if c.samples = [] then probe c;
  Stats.median (Array.of_list c.samples) /. reference_s
