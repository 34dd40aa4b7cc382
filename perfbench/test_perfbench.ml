(* Tests for the benchmark's own code: the percentile rule, span self
   time, seed determinism of the traffic and input schedules, freshness
   of the serve-cold pool, and agreement of the metric schema with
   BENCHMARK.json. *)

open Perfbench
module Rng = Llvm_workloads.Rng

let percentile_rule () =
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Stats.samples_needed 0.99);
  Alcotest.(check int) "p95 needs 200 samples" 200 (Stats.samples_needed 0.95);
  Alcotest.(check bool) "999 samples cannot carry a p99" false
    (Stats.supports ~n:999 0.99);
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (float 0.0)) "nearest-rank p99" 990.0 (Stats.percentile xs 0.99);
  Alcotest.(check int) "ten samples beyond p99" 10 (Stats.beyond ~n:1000 0.99);
  Alcotest.(check (float 0.0)) "median" 500.0 (Stats.median xs);
  Alcotest.check_raises "an unsupported percentile is refused"
    (Failure "p99 needs 1000 samples, only 999 taken") (fun () ->
      ignore (Stats.supported_percentile (Array.sub xs 0 999) 0.99))

let span ~id ~parent a b =
  { Trace.id; name = "s"; parent; rid = 0; start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b }

let self_time_fixture () =
  (* root [0,100] with children A [10,40] and B [30,60] (overlapping),
     and A's child C [15,20] *)
  let spans =
    [ span ~id:0 ~parent:(-1) 0 100; span ~id:1 ~parent:0 10 40;
      span ~id:2 ~parent:0 30 60; span ~id:3 ~parent:1 15 20 ]
  in
  let self = Trace.self_ns spans in
  let get id = Int64.to_int (Hashtbl.find self id) in
  Alcotest.(check int) "root: children cover 50 of 100" 50 (get 0);
  Alcotest.(check int) "A: C covers 5 of 30" 25 (get 1);
  Alcotest.(check int) "B: leaf" 30 (get 2);
  Alcotest.(check int) "C: leaf" 5 (get 3);
  Alcotest.(check (float 1e-9)) "coverage of the root" 0.5 (Trace.coverage spans)

let recorded_nesting () =
  Trace.reset ();
  Trace.on := true;
  Trace.span ~rid:7 "request" (fun () ->
      Trace.span "loader" (fun () -> ());
      Trace.span "pass.gvn" (fun () -> Trace.span "verify" (fun () -> ())));
  Trace.on := false;
  let spans = Trace.spans () in
  let find n = List.find (fun s -> s.Trace.name = n) spans in
  let root = find "request" and pass = find "pass.gvn" in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  Alcotest.(check int) "root has no parent" (-1) root.Trace.parent;
  Alcotest.(check int) "nested parent" pass.Trace.id (find "verify").Trace.parent;
  Alcotest.(check bool) "rid inherited" true
    (List.for_all (fun s -> s.Trace.rid = 7) spans);
  Trace.reset ();
  Alcotest.(check int) "disabled: nothing recorded" 0
    (Trace.span "x" (fun () -> List.length (Trace.spans ())))

let zipf_determinism () =
  let draws seed =
    let z = Traffic.zipf ~s:1.1 ~n:35 (Rng.create 0x5e12e) in
    let rng = Rng.create seed in
    List.init 500 (fun _ -> Traffic.sample z rng)
  in
  Alcotest.(check (list int)) "same seed, same draws" (draws 3) (draws 3);
  Alcotest.(check bool) "another seed, other draws" true (draws 3 <> draws 4);
  Alcotest.(check bool) "draws stay in range" true
    (List.for_all (fun i -> i >= 0 && i < 35) (draws 5))

let schedule_determinism () =
  let run seed =
    let s = Lifelong_wl.schedule ~seed in
    let rng = Rng.create seed in
    (s.Lifelong_wl.values, s.Lifelong_wl.holdout,
     List.init 200 (fun _ -> Lifelong_wl.draw s rng))
  in
  let v, h, d = run 11 in
  let v', h', d' = run 11 in
  Alcotest.(check (array int)) "values" v v';
  Alcotest.(check (array int)) "holdout" h h';
  Alcotest.(check (list int)) "draws" d d';
  Alcotest.(check bool) "held-out inputs are never scheduled" true
    (Array.for_all (fun x -> not (Array.mem x v)) h);
  Alcotest.(check bool) "draws come from the schedule" true
    (List.for_all (fun x -> Array.mem x v) d);
  let _, _, other = run 12 in
  Alcotest.(check bool) "another seed, other inputs" true (d <> other)

let cold_pool_fresh () =
  let digests =
    List.concat_map
      (fun seed ->
        List.init 20 (fun k ->
            let it = Traffic.cold_item ~seed k in
            match Llvm_serve.Loader.of_bytes ~name:"t" it.Traffic.bc with
            | Ok m -> Llvm_bitcode.Digest.of_module m
            | Error e -> Alcotest.fail e))
      [ 1; 2 ]
  in
  Alcotest.(check int) "no two cold payloads share a canonical digest"
    (List.length digests)
    (List.length (List.sort_uniq compare digests))

let schema_matches_benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let occurrences needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length text then acc
      else go (i + 1) (if String.sub text i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check int) (name ^ " listed once") 1
        (occurrences (Printf.sprintf "\"name\": %S, \"unit\": %S" name unit)))
    (Report.end_to_end @ Report.per_layer);
  Alcotest.(check int) "no metric beyond the schema"
    (List.length Report.end_to_end + List.length Report.per_layer)
    (occurrences "\"unit\":")

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "span self time" `Quick self_time_fixture;
          Alcotest.test_case "recorded span nesting" `Quick recorded_nesting;
          Alcotest.test_case "zipf sampler determinism" `Quick zipf_determinism;
          Alcotest.test_case "input schedule determinism" `Quick
            schedule_determinism;
          Alcotest.test_case "serve-cold payloads are fresh" `Quick
            cold_pool_fresh;
          Alcotest.test_case "schema matches BENCHMARK.json" `Quick
            schema_matches_benchmark_json ] ) ]
