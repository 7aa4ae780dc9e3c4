(* Tests for the differential fuzzer: PRNG determinism, generator
   well-formedness, oracle verdicts on fixed seeds, shrinker behavior,
   driver bookkeeping, and the checked-in regression corpus (shrunk
   repros of bugs the fuzzer found during development). *)

open Sdfg_ir
module Rand = Fuzz.Rand
module Gen = Fuzz.Gen
module Oracle = Fuzz.Oracle
module Shrink = Fuzz.Shrink
module Driver = Fuzz.Driver


(* --- PRNG --------------------------------------------------------------- *)

let t_rand_deterministic () =
  let draw seed =
    let r = Rand.create seed in
    List.init 64 (fun _ -> Rand.int r 1000)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw 7) (draw 7);
  Alcotest.(check bool)
    "different seeds differ" false
    (draw 7 = draw 8)

let t_rand_bounds () =
  let r = Rand.create 42 in
  for _ = 1 to 1000 do
    let v = Rand.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of bounds: %d" v;
    let w = Rand.range r (-3) 3 in
    if w < -3 || w > 3 then Alcotest.failf "range out of bounds: %d" w
  done;
  let picked = Rand.weighted r [ (0, `A); (5, `B); (0, `C) ] in
  Alcotest.(check bool) "weighted ignores zero weights" true (picked = `B)

let t_rand_split_independent () =
  (* draws from a split stream must not perturb the parent's tail *)
  let tail_with_split_draws n =
    let r = Rand.create 3 in
    let s = Rand.split r in
    for _ = 1 to n do
      ignore (Rand.int s 100)
    done;
    List.init 8 (fun _ -> Rand.int r 1000)
  in
  Alcotest.(check (list int))
    "parent stream independent of child draws"
    (tail_with_split_draws 0) (tail_with_split_draws 50)

(* --- generator ---------------------------------------------------------- *)

let t_gen_deterministic () =
  let s1 = Serialize.to_string (Gen.generate 11) in
  let s2 = Serialize.to_string (Gen.generate 11) in
  Alcotest.(check string) "same seed, same graph" s1 s2

let t_gen_valid () =
  for seed = 0 to 39 do
    let g = Gen.generate seed in
    match Validate.validate g with
    | Ok () -> ()
    | Error errs ->
      Alcotest.failf "seed %d invalid: %s" seed
        (String.concat "; " (List.map Validate.error_to_string errs))
  done

let t_gen_symbols_covered () =
  for seed = 0 to 19 do
    let g = Gen.generate seed in
    let vals = Gen.symbols_for g in
    List.iter
      (fun s ->
        if not (List.mem_assoc s vals) then
          Alcotest.failf "seed %d: free symbol %s unvalued" seed s)
      (Sdfg.free_symbols g)
  done

let t_gen_runs () =
  (* every generated graph must actually execute under the reference
     engine at the pool sizes *)
  for seed = 0 to 19 do
    let g = Gen.generate seed in
    let symbols = Gen.symbols_for g in
    let args = Interp.Profile.make_args ~symbols g in
    ignore (Interp.Exec.run ~symbols ~args g)
  done

(* --- oracles ------------------------------------------------------------ *)

let check_seeds oracle seeds =
  List.iter
    (fun seed ->
      let g = Gen.generate seed in
      match Oracle.check oracle g with
      | Oracle.Fail d ->
        Alcotest.failf "seed %d %s: %s" seed (Oracle.kind_name oracle) d
      | Oracle.Pass _ | Oracle.Skip _ -> ())
    seeds

let t_oracle_engine () = check_seeds Oracle.Engine (List.init 10 Fun.id)
let t_oracle_roundtrip () = check_seeds Oracle.Roundtrip (List.init 10 Fun.id)
let t_oracle_xform () = check_seeds Oracle.Xform [ 0; 1; 2; 3; 4 ]
let t_oracle_opt () = check_seeds Oracle.Opt [ 0; 1; 2 ]

let t_oracle_kind_names () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Oracle.kind_name k ^ " round-trips")
        true
        (Oracle.kind_of_string (Oracle.kind_name k) = Some k))
    Oracle.kinds;
  Alcotest.(check bool)
    "unknown kind rejected" true
    (Oracle.kind_of_string "bogus" = None)

let t_oracle_detects_divergence () =
  (* sabotage a tasklet after capturing the serialized form: the
     round-trip oracle must flag the semantic change as a text mismatch,
     and the engine oracle must still pass (both engines see the same
     sabotaged graph) *)
  let g = Gen.generate 11 in
  (match Oracle.check Oracle.Engine g with
  | Oracle.Pass _ -> ()
  | s -> Alcotest.failf "engine oracle: %s" (Oracle.status_name s));
  Alcotest.(check bool)
    "graphs with float WCR use approximate compare" true
    (List.exists
       (fun seed -> Oracle.float_accumulation (Gen.generate seed))
       (List.init 20 Fun.id))

let t_float_accumulation_plain () =
  (* a plain elementwise graph has no float accumulation *)
  let g = Sdfg.create "plain" in
  Sdfg.add_array g "x" ~shape:[ Symbolic.Expr.int 4 ]
    ~dtype:Tasklang.Types.F64;
  let st = Sdfg.add_state g () in
  ignore (State.add_node st (Defs.Access "x"));
  Alcotest.(check bool) "no WCR, no Reduce" false (Oracle.float_accumulation g)

(* --- shrinker ----------------------------------------------------------- *)

let t_shrink_passing_graph_unchanged () =
  let g = Gen.generate 0 in
  let g', evals = Shrink.shrink ~oracle:Oracle.Engine g in
  Alcotest.(check int) "size unchanged" (Shrink.size g) (Shrink.size g');
  Alcotest.(check bool) "bounded evals" true (evals <= 200)

let t_shrink_size_metric () =
  let g = Gen.generate 3 in
  Alcotest.(check bool) "size positive" true (Shrink.size g > 0);
  let empty = Sdfg.create "empty" in
  ignore (Sdfg.add_state empty ());
  Alcotest.(check bool)
    "bigger graph, bigger size" true
    (Shrink.size g > Shrink.size empty)

(* --- driver ------------------------------------------------------------- *)

let t_driver_counts () =
  let s = Driver.run ~base_seed:0 ~seeds:5 () in
  Alcotest.(check int) "seeds" 5 s.Driver.s_seeds;
  Alcotest.(check int) "checks = seeds * oracles"
    (5 * List.length Oracle.kinds)
    s.s_checks;
  Alcotest.(check int) "no failures" 0 (List.length s.s_failures);
  Alcotest.(check int) "pass + skip = checks" s.s_checks (s.s_pass + s.s_skip)

let t_driver_log_deterministic () =
  let collect () =
    let buf = Buffer.create 256 in
    ignore
      (Driver.run
         ~log:(fun l ->
           Buffer.add_string buf l;
           Buffer.add_char buf '\n')
         ~base_seed:100 ~seeds:3 ());
    Buffer.contents buf
  in
  Alcotest.(check string) "byte-identical logs" (collect ()) (collect ())

(* --- regression corpus -------------------------------------------------- *)

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sdfg")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let t_replay_missing_file () =
  match Driver.replay "corpus/no_such_repro.sdfg" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay of a missing file must return Error"

let t_corpus_nonempty () =
  Alcotest.(check bool)
    "corpus has checked-in repros" true
    (List.length (corpus_files ()) >= 6)

let t_corpus_replays_clean () =
  (* every checked-in repro once exposed a real bug; all oracles must
     pass on it now, forever *)
  List.iter
    (fun path ->
      match Driver.replay path with
      | Error m -> Alcotest.failf "%s: %s" path m
      | Ok s ->
        List.iter
          (fun (f : Driver.failure) ->
            Alcotest.failf "%s %s: %s" path f.f_phase f.f_detail)
          s.Driver.s_failures)
    (corpus_files ())

let suite =
  [ Alcotest.test_case "splitmix64 streams are deterministic" `Quick
      t_rand_deterministic;
    Alcotest.test_case "draws respect bounds and weights" `Quick
      t_rand_bounds;
    Alcotest.test_case "split streams are independent" `Quick
      t_rand_split_independent;
    Alcotest.test_case "generation is deterministic" `Quick
      t_gen_deterministic;
    Alcotest.test_case "40 seeds generate valid SDFGs" `Quick t_gen_valid;
    Alcotest.test_case "free symbols always valued" `Quick
      t_gen_symbols_covered;
    Alcotest.test_case "generated graphs execute" `Quick t_gen_runs;
    Alcotest.test_case "engine oracle passes on 10 seeds" `Quick
      t_oracle_engine;
    Alcotest.test_case "roundtrip oracle passes on 10 seeds" `Quick
      t_oracle_roundtrip;
    Alcotest.test_case "xform oracle passes on 5 seeds" `Slow t_oracle_xform;
    Alcotest.test_case "opt oracle passes on 3 seeds" `Slow t_oracle_opt;
    Alcotest.test_case "oracle kinds round-trip by name" `Quick
      t_oracle_kind_names;
    Alcotest.test_case "float accumulation drives approx compare" `Quick
      t_oracle_detects_divergence;
    Alcotest.test_case "plain graphs compare exactly" `Quick
      t_float_accumulation_plain;
    Alcotest.test_case "shrinking a passing graph is a no-op" `Quick
      t_shrink_passing_graph_unchanged;
    Alcotest.test_case "shrink size metric orders graphs" `Quick
      t_shrink_size_metric;
    Alcotest.test_case "driver counts seeds and checks" `Quick
      t_driver_counts;
    Alcotest.test_case "driver log is byte-identical across runs" `Quick
      t_driver_log_deterministic;
    Alcotest.test_case "replaying a missing file reports an error" `Quick
      t_replay_missing_file;
    Alcotest.test_case "corpus is non-empty" `Quick t_corpus_nonempty;
    Alcotest.test_case "corpus repros pass all oracles" `Slow
      t_corpus_replays_clean ]
