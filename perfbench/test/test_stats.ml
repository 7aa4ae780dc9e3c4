(* The benchmark's own statistics: percentile rule, geomean, span self
   time and the hit/miss split. *)

let floats = Alcotest.(list (float 1e-12))
let close = Alcotest.float 1e-9
let range n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let xs = range 100 in
  Alcotest.check close "nearest-rank p50 of 1..100" 50. (Stats.percentile 50. xs);
  Alcotest.check close "nearest-rank p90 of 1..100" 90. (Stats.percentile 90. xs);
  Alcotest.check close "median ignores order" 3.
    (Stats.median [ 5.; 1.; 3.; 2.; 4. ]);
  Alcotest.check close "p100 is the maximum" 100. (Stats.percentile 100. xs)

let test_tail_rule () =
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stats.min_samples_for 90.);
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Stats.min_samples_for 99.);
  Alcotest.(check int) "10 samples beyond p90 of 100" 10
    (Stats.samples_beyond 100 90.);
  Alcotest.(check bool) "p90 of 99 samples refused" true
    (Result.is_error (Stats.tail 90. (range 99)));
  Alcotest.(check (result (float 1e-9) string)) "p90 of 100 samples" (Ok 90.)
    (Stats.tail 90. (range 100));
  Alcotest.(check bool) "p99 of 999 samples refused" true
    (Result.is_error (Stats.tail 99. (range 999)))

let test_geomean () =
  Alcotest.check close "geomean 1 4 16" 4. (Stats.geomean [ 1.; 4.; 16. ]);
  Alcotest.check close "geomean of one value" 7. (Stats.geomean [ 7. ]);
  Alcotest.check_raises "zero is refused"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.; 0. ]))

let span name parent t0 t1 =
  { Trace.name; id = 0; parent; tid = 0; t0; t1 }

let test_self_time () =
  (* root [0, 10] with overlapping children [1, 3] and [2, 5], and one
     sticking out past its end, [8, 12]: covered 1..5 and 8..10 *)
  let spans =
    [| span "root" (-1) 0. 10.; span "a" 0 1. 3.; span "b" 0 2. 5.;
       span "c" 0 8. 12.; span "a.child" 1 1.5 2.5 |]
  in
  Alcotest.check floats "self = span - child coverage" [ 4.; 1.; 3.; 4.; 1. ]
    (Array.to_list (Trace.self_times spans))

let test_recorded_spans () =
  Trace.reset ();
  Trace.enabled := true;
  Trace.span ~id:7 "outer" (fun () ->
      Trace.span "inner" (fun () -> Unix.sleepf 0.002));
  Trace.enabled := false;
  Trace.span "untraced" ignore;
  let spans = Trace.spans () in
  Alcotest.(check (list string)) "names in start order" [ "outer"; "inner" ]
    (Array.to_list (Array.map (fun (s : Trace.span) -> s.name) spans));
  Alcotest.(check int) "inner's parent is outer" 0 spans.(1).parent;
  Alcotest.(check int) "inner inherits the id" 7 spans.(1).id;
  let selfs = Trace.self_times spans in
  Alcotest.(check bool) "outer's self time excludes inner" true
    (selfs.(0) < spans.(1).t1 -. spans.(1).t0);
  Alcotest.(check int) "self_ms filters by name" 1
    (List.length (Trace.self_ms spans selfs "inner"));
  Trace.reset ()

let test_hit_miss_split () =
  let hits, misses =
    Stats.split_hits [ (true, 1.); (false, 5.); (true, 2.); (false, 6.) ]
  in
  Alcotest.check floats "hits in order" [ 1.; 2. ] hits;
  Alcotest.check floats "misses in order" [ 5.; 6. ] misses

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ ("percentile", `Quick, test_percentile);
          ("tail rule", `Quick, test_tail_rule);
          ("geomean", `Quick, test_geomean);
          ("hit/miss split", `Quick, test_hit_miss_split) ] );
      ( "trace",
        [ ("self time", `Quick, test_self_time);
          ("recorded spans", `Quick, test_recorded_spans) ] ) ]
