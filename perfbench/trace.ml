(* In-memory span recorder for the traced benchmark run.

   Spans are recorded here, in the benchmark, around calls into each
   layer's public functions; the libraries under test carry no tracing.
   A span has a name (the layer), start and end on the monotonic clock,
   its parent span, and the id of the request or run it belongs to.
   Spans stay in memory and are written once, at exit, as Chrome
   trace-event JSON (viewable in chrome://tracing or Perfetto).

   With tracing off, [span] is a plain call, so the untraced runs that
   produce the end-to-end metrics pay one branch per layer call. *)

let now_ns () : int64 = Monotonic_clock.now ()

let elapsed_s (t0 : int64) : float =
  Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  rid : int;  (** request or run id, inherited from the parent *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let on = ref false
let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  recorded := [];
  open_spans := [];
  next_id := 0;
  Hashtbl.reset counters

let close (s : span) =
  s.stop_ns <- now_ns ();
  open_spans := List.tl !open_spans;
  recorded := s :: !recorded

(* [span ?rid name f] runs [f] inside a span.  A root span must give
   its [rid]; nested spans inherit their parent's. *)
let span ?rid (name : string) (f : unit -> 'a) : 'a =
  if not !on then f ()
  else begin
    let parent, inherited =
      match !open_spans with [] -> (-1, 0) | p :: _ -> (p.id, p.rid)
    in
    let s =
      { id = !next_id; name; parent;
        rid = Option.value rid ~default:inherited;
        start_ns = now_ns (); stop_ns = 0L }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    match f () with
    | v ->
      close s;
      v
    | exception e ->
      close s;
      raise e
  end

(* Add to a counter recorded at a layer boundary (traced runs only). *)
let count (name : string) (v : float) : unit =
  if !on then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter (name : string) : float =
  Option.value ~default:0.0 (Hashtbl.find_opt counters name)

let spans () : span list = List.rev !recorded

let duration_ns (s : span) : int64 = Int64.sub s.stop_ns s.start_ns

(* Self time of every span: its duration minus the part of its interval
   covered by its children (overlapping children are counted once). *)
let self_ns (all : span list) : (int, int64) Hashtbl.t =
  let kids : (int, (int64 * int64) list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    all;
  let self = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let ivs =
        Option.value ~default:[] (Hashtbl.find_opt kids s.id)
        |> List.map (fun (a, b) -> (max a s.start_ns, min b s.stop_ns))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
          (0L, s.start_ns) ivs
      in
      Hashtbl.replace self s.id (Int64.sub (duration_ns s) covered))
    all;
  self

let ms_of_ns (ns : int64) : float = Int64.to_float ns /. 1e6

(* Total inclusive time of the spans whose name satisfies [pred]. *)
let busy_ms ?(pred : (string -> bool) option) (all : span list)
    (name : string) : float =
  let keep = match pred with Some p -> p | None -> String.equal name in
  List.fold_left
    (fun acc s -> if keep s.name then acc +. ms_of_ns (duration_ns s) else acc)
    0.0 all

let roots (all : span list) : span list =
  List.filter (fun s -> s.parent < 0) all

(* Uncovered (glue) time of the root request/run spans, and the share of
   root time that child layer spans cover. *)
let root_self_ms (all : span list) : float =
  let self = self_ns all in
  List.fold_left
    (fun acc s -> acc +. ms_of_ns (Hashtbl.find self s.id))
    0.0 (roots all)

let coverage (all : span list) : float =
  let total =
    List.fold_left (fun acc s -> acc +. ms_of_ns (duration_ns s)) 0.0 (roots all)
  in
  if total <= 0.0 then 0.0 else 1.0 -. (root_self_ms all /. total)

(* Time in [name] spans that are direct children of [root] spans, as a
   share of the [root] spans' time. *)
let share_under ~(root : string) (all : span list) (name : string) : float =
  let roots = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = root then Hashtbl.replace roots s.id ()) all;
  let total = busy_ms all root in
  let inside =
    List.fold_left
      (fun acc s ->
        if s.name = name && Hashtbl.mem roots s.parent then
          acc +. ms_of_ns (duration_ns s)
        else acc)
      0.0 all
  in
  if total <= 0.0 then 0.0 else inside /. total

let write_chrome (path : string) (all : span list) : unit =
  let base = match all with [] -> 0L | s :: _ -> s.start_ns in
  let base = List.fold_left (fun b s -> min b s.start_ns) base all in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
         %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
         \"rid\": %d, \"start_us\": %.3f, \"end_us\": %.3f}}\n"
        (if i = 0 then "" else ",")
        s.name (us s.start_ns)
        (Int64.to_float (duration_ns s) /. 1e3)
        s.id s.parent s.rid (us s.start_ns) (us s.stop_ns))
    all;
  output_string oc "]}\n";
  close_out oc
