(* The serving layer (ISSUE 7): Exec.Config as the one execution-tuning
   surface, Serialize.hash, the wire protocol's bit-exact tensor codec, the
   LRU plan cache (accounting, bound, persistence, cross-domain
   sharing), and the daemon end-to-end — including 100 concurrent
   fuzz-generated requests whose responses must be bit-identical to
   direct Exec.run. *)

module T = Tasklang.Types
module Exec = Interp.Exec
module Tensor = Interp.Tensor
module Protocol = Serve.Protocol
module Json = Obs.Json
open Sdfg_ir

let tensor_bits = Test_crossval.tensor_bits

let tmp_name prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Fmt.str "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))

let compiled_1 =
  Exec.Config.(default |> with_engine Interp.Plan.compiled |> with_domains 1)

(* --- Serialize.hash ------------------------------------------------------ *)

let test_hash () =
  let g = Workloads.Kernels.matmul () in
  let h = Serialize.hash g in
  Alcotest.(check int) "hash is hex md5" 32 (String.length h);
  Alcotest.(check string) "hash = digest of the serialized text"
    (Digest.to_hex (Digest.string (Serialize.to_string g)))
    h;
  Alcotest.(check string) "hash deterministic" h (Serialize.hash g);
  let reloaded = Serialize.of_string (Serialize.to_string g) in
  Alcotest.(check string) "hash stable across serialize round-trip" h
    (Serialize.hash reloaded);
  let other = Workloads.Kernels.histogram () in
  Alcotest.(check bool) "different graphs hash differently" false
    (String.equal h (Serialize.hash other))

(* --- Exec.Config --------------------------------------------------------- *)

let test_config_validate () =
  let open Exec.Config in
  (match validate (with_domains 0 default) with
  | Error (Invalid_domains 0) -> ()
  | _ -> Alcotest.fail "domains = 0 must be a typed Invalid_domains error");
  (match validate (with_max_states 0 default) with
  | Error (Invalid_max_states 0) -> ()
  | _ ->
    Alcotest.fail "max_states = 0 must be a typed Invalid_max_states error");
  (* Above the pool maximum is not an error: it clamps. *)
  (match validate (with_domains 1000 default) with
  | Ok c -> Alcotest.(check int) "clamp to 64" 64 (resolved_domains c)
  | Error _ -> Alcotest.fail "domains = 1000 must validate (and clamp)");
  (* run surfaces an invalid config as Runtime_error, not a raw raise. *)
  Alcotest.check_raises "Exec.run rejects invalid config"
    (Exec.Runtime_error "config: domains must be >= 1 (got 0)") (fun () ->
      ignore
        (Exec.run ~config:(with_domains 0 default)
           (Workloads.Kernels.copy ())
           ~symbols:[ ("N", 4) ]))

(* The domain-selection rules as a table: rows are SDFG_DOMAINS values
   (unset, empty, a count, garbage, zero, above the pool maximum),
   columns the config's domain request; each cell is the resolved
   policy.  An explicit request beats the environment; unset or empty
   means predictive up to the hardware's domain count.  OCaml cannot
   unset a variable, so the unset row runs only when the suite starts
   with SDFG_DOMAINS unset (one leg of the CI matrix); the empty row
   checks the same rule everywhere. *)
let test_config_precedence () =
  let open Exec.Config in
  let hw_cap = max 1 (min (Interp.Pool.available ()) 64) in
  let hw = Exec.Predictive hw_cap in
  let columns =
    [ ("default", default); ("with_domains 2", with_domains 2 default);
      ("with_auto_domains ()", with_auto_domains default);
      ("with_auto_domains ~cap:3", with_auto_domains ~cap:3 default) ]
  in
  let predictive = [ hw; Fixed 2; hw; Predictive 3 ] in
  let pinned d = [ Exec.Fixed d; Fixed 2; hw; Predictive 3 ] in
  let table =
    [ (None, predictive); (Some "", predictive); (Some "3", pinned 3);
      (Some "junk", pinned 1); (Some "0", pinned 1); (Some "100", pinned 64) ]
  in
  let policy =
    Alcotest.testable
      (fun ppf -> function
        | Exec.Fixed d -> Fmt.pf ppf "Fixed %d" d
        | Exec.Predictive c -> Fmt.pf ppf "Predictive %d" c)
      ( = )
  in
  let initial = Sys.getenv_opt "SDFG_DOMAINS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SDFG_DOMAINS" (Option.value initial ~default:""))
    (fun () ->
      List.iter
        (fun (row, expected) ->
          let runnable =
            match row with
            | Some v -> Unix.putenv "SDFG_DOMAINS" v; true
            | None -> initial = None
          in
          if runnable then
            List.iter2
              (fun (col, c) want ->
                Alcotest.check policy
                  (Fmt.str "SDFG_DOMAINS=%s, %s"
                     (Option.value row ~default:"<unset>") col)
                  want (resolved_policy c))
              columns expected)
        table;
      (* Every JSON [domains] form parses to the policy of its setter
         and to that setter's plan-cache key.  Host-independent forms
         are also pinned to fixed digests, so cache entries persisted
         by a daemon stay addressable across releases. *)
      let parsed j =
        match of_json (Json.Obj [ ("domains", j) ]) with
        | Ok c -> c
        | Error e -> Alcotest.fail (error_message e)
      in
      let key c =
        Protocol.cache_key ~sdfg_text:"sdfg" ~symbols:[ ("N", 4) ] ~config:c
      in
      let check_form env j setter golden =
        Unix.putenv "SDFG_DOMAINS" env;
        let c = parsed j in
        let name = Fmt.str "SDFG_DOMAINS=%s, %s" env (Json.to_string j) in
        Alcotest.check policy name (resolved_policy setter)
          (resolved_policy c);
        Alcotest.(check string) (name ^ " key") (key setter) (key c);
        Option.iter
          (fun g -> Alcotest.(check string) (name ^ " digest") g (key c))
          golden
      in
      check_form "3" Json.Null (with_domains 3 default)
        (Some "58c3e5e557ab81ddcd6bcfd08c340623");
      check_form "junk" Json.Null (with_domains 1 default)
        (Some "d8be4fa9577dfb906a53f0d635276c94");
      check_form "" Json.Null (with_auto_domains ~cap:hw_cap default) None;
      check_form "3" (Json.Int 2) (with_domains 2 default)
        (Some "afd70d38b2d8a1e82faf77401471520b");
      check_form "3" (Json.Str "auto")
        (with_auto_domains ~cap:hw_cap default) None;
      check_form "3" (Json.Str "auto:3") (with_auto_domains ~cap:3 default)
        (Some "5d0f0215b6c3b70bb2252b7dbca7ca36"))

let test_config_json () =
  let open Exec.Config in
  let c =
    default |> with_engine Interp.Plan.compiled
    |> with_instrument Obs.Collect.All |> with_max_states 123
    |> with_domains 3 |> with_kernels false
  in
  (match of_json (to_json c) with
  | Ok c' -> Alcotest.(check bool) "to_json/of_json round-trip" true (c = c')
  | Error e -> Alcotest.fail (error_message e));
  (match of_json (Json.Obj []) with
  | Ok c' ->
    Alcotest.(check bool) "missing fields keep defaults" true (c' = default)
  | Error e -> Alcotest.fail (error_message e));
  (match of_json (Json.Obj [ ("domains", Json.Int 0) ]) with
  | Error (Invalid_domains 0) -> ()
  | _ -> Alcotest.fail "of_json must validate");
  match of_json (Json.Obj [ ("engine", Json.Str "quantum") ]) with
  | Error (Parse _) -> ()
  | _ -> Alcotest.fail "unknown engine must be a Parse error"

(* The streaming knobs ride the same Config surface: with-style setters,
   typed validation and a JSON round-trip where missing fields keep
   their defaults (so pre-streaming configs still parse). *)
let test_config_stream_knobs () =
  let open Exec.Config in
  let c = default |> with_stream_chunk 17 |> with_stream_capacity 5 in
  (match validate c with
  | Ok c' ->
    Alcotest.(check int) "chunk survives validate" 17 c'.stream_chunk
  | Error _ -> Alcotest.fail "valid stream knobs must validate");
  (match validate (default |> with_stream_chunk 0) with
  | Error (Invalid_stream_chunk 0) -> ()
  | _ -> Alcotest.fail "stream_chunk 0 must be Invalid_stream_chunk");
  (match validate (default |> with_stream_capacity (-3)) with
  | Error (Invalid_stream_capacity -3) -> ()
  | _ -> Alcotest.fail "stream_capacity -3 must be Invalid_stream_capacity");
  (match of_json (to_json c) with
  | Ok c' -> Alcotest.(check bool) "round-trip" true (c' = c)
  | Error e -> Alcotest.fail (error_message e));
  match of_json (Json.Obj [ ("engine", Json.Str "compiled") ]) with
  | Ok c' ->
    Alcotest.(check int) "missing chunk defaults" 64 c'.stream_chunk;
    Alcotest.(check bool) "missing capacity defaults" true
      (c'.stream_capacity = None)
  | Error e -> Alcotest.fail (error_message e)

(* --- protocol ------------------------------------------------------------ *)

let test_frames () =
  let path = tmp_name "frames" in
  let oc = open_out_bin path in
  Protocol.write_frame oc "hello";
  Protocol.write_frame oc "";
  Protocol.write_frame oc (String.make 100_000 'x');
  close_out oc;
  let ic = open_in_bin path in
  Alcotest.(check (option string)) "frame 1" (Some "hello")
    (Protocol.read_frame ic);
  Alcotest.(check (option string)) "frame 2 (empty)" (Some "")
    (Protocol.read_frame ic);
  Alcotest.(check (option string))
    "frame 3 (large)"
    (Some (String.make 100_000 'x'))
    (Protocol.read_frame ic);
  Alcotest.(check (option string)) "EOF" None (Protocol.read_frame ic);
  close_in ic;
  Sys.remove path;
  let bad = tmp_name "badframe" in
  let oc = open_out_bin bad in
  output_string oc "not-a-length\npayload";
  close_out oc;
  let ic = open_in_bin bad in
  Alcotest.(check bool) "malformed header raises" true
    (match Protocol.read_frame ic with
    | exception Protocol.Protocol_error _ -> true
    | _ -> false);
  close_in ic;
  Sys.remove bad

(* The tensor codec must preserve every bit pattern — including NaN and
   infinities, which Obs.Json's float emission deliberately mangles. *)
let test_tensor_codec () =
  let f64 =
    Tensor.of_float_array T.F64 [| 2; 3 |]
      [| 0.; -0.; 1.5; Float.nan; Float.infinity; Float.neg_infinity |]
  in
  let f32 = Tensor.of_float_array T.F32 [| 3 |] [| 1.25; -2.5; 0.1 |] in
  let i64 = Tensor.of_int_array T.I64 [| 2; 2 |] [| min_int; -1; 0; max_int |] in
  let b = Tensor.of_int_array T.Bool [| 2 |] [| 0; 1 |] in
  List.iter
    (fun t ->
      match Protocol.tensor_of_json (Protocol.tensor_to_json t) with
      | Error e -> Alcotest.fail e
      | Ok t' ->
        Alcotest.(check (list int))
          "shape survives"
          (Array.to_list (Tensor.shape t))
          (Array.to_list (Tensor.shape t'));
        Alcotest.(check (list int64)) "bits survive" (tensor_bits t)
          (tensor_bits t'))
    [ f64; f32; i64; b ]

let test_request_roundtrip () =
  let g = Workloads.Kernels.copy () in
  let symbols = [ ("N", 8) ] in
  let args = Interp.Profile.make_args ~symbols g in
  let req =
    Protocol.Run
      { rq_program = Protocol.Prog_sdfg (Serialize.to_string g);
        rq_symbols = symbols; rq_config = compiled_1; rq_args = args }
  in
  let j = Json.parse (Json.to_string (Protocol.request_to_json ~id:7 req)) in
  Alcotest.(check int) "id survives" 7 (Protocol.request_id j);
  match Protocol.request_of_json j with
  | Error e -> Alcotest.fail e
  | Ok (Protocol.Run rq) ->
    Alcotest.(check bool) "program survives" true
      (rq.rq_program = Protocol.Prog_sdfg (Serialize.to_string g));
    Alcotest.(check bool) "symbols survive" true (rq.rq_symbols = symbols);
    Alcotest.(check bool) "config survives" true (rq.rq_config = compiled_1);
    List.iter2
      (fun (n, t) (n', t') ->
        Alcotest.(check string) "arg order" n n';
        Alcotest.(check (list int64)) "arg bits" (tensor_bits t)
          (tensor_bits t'))
      args rq.rq_args
  | Ok _ -> Alcotest.fail "wrong request kind"

let test_cache_key () =
  let text = Serialize.to_string (Workloads.Kernels.copy ()) in
  let key = Protocol.cache_key ~sdfg_text:text ~symbols:[ ("N", 8) ] in
  let k1 = key ~config:compiled_1 in
  Alcotest.(check string) "deterministic" k1 (key ~config:compiled_1) ;
  (* Instrumentation is normalized away (instances force it off)... *)
  Alcotest.(check string) "instrument level does not split the cache" k1
    (key ~config:(Exec.Config.with_instrument Obs.Collect.All compiled_1));
  (* ...but engine, symbols and domain count are identity. *)
  Alcotest.(check bool) "engine splits" false
    (String.equal k1 (key ~config:Exec.Config.default));
  Alcotest.(check bool) "domains split" false
    (String.equal k1 (key ~config:(Exec.Config.with_domains 2 compiled_1)));
  Alcotest.(check bool) "symbols split" false
    (String.equal k1
       (Protocol.cache_key ~sdfg_text:text ~symbols:[ ("N", 9) ]
          ~config:compiled_1))

(* --- Exec.Instance ------------------------------------------------------- *)

let test_instance_bit_identical () =
  let symbols = [ ("M", 6); ("N", 5); ("K", 4) ] in
  let inst =
    Exec.Instance.create ~config:compiled_1 ~symbols
      (Workloads.Kernels.matmul ())
  in
  let fresh () = Interp.Profile.make_args ~symbols (Workloads.Kernels.matmul ()) in
  (* Two runs of one instance, interleaved with direct Exec.run — all
     four must agree bit-for-bit. *)
  let direct = fresh () in
  ignore
    (Exec.run ~config:compiled_1 ~symbols ~args:direct
       (Workloads.Kernels.matmul ()));
  List.iter
    (fun round ->
      let args = fresh () in
      ignore (Exec.Instance.run ~args inst);
      List.iter2
        (fun (n, t) (_, t') ->
          Alcotest.(check (list int64))
            (Fmt.str "round %d: %S bit-identical to direct run" round n)
            (tensor_bits t') (tensor_bits t))
        args direct)
    [ 1; 2; 3 ];
  match
    Exec.Instance.run ~args:[ ("bogus", Tensor.create T.F64 [| 1 |]) ] inst
  with
  | _ -> Alcotest.fail "unknown argument must be rejected"
  | exception Exec.Runtime_error msg ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "error names the bogus container" true
      (contains msg "bogus")

(* --- cache --------------------------------------------------------------- *)

let mk_instance seed =
  let g = Fuzz.Gen.generate seed in
  let symbols = Fuzz.Gen.symbols_for g in
  let text = Serialize.to_string g in
  let key =
    Protocol.cache_key ~sdfg_text:text ~symbols ~config:compiled_1
  in
  (key, text, Exec.Instance.create ~config:compiled_1 ~symbols g)

let test_cache_accounting () =
  let c = Serve.Cache.create ~capacity:2 () in
  let k0, t0, i0 = mk_instance 0 in
  Alcotest.(check bool) "miss on empty" true (Serve.Cache.find c k0 = None);
  ignore (Serve.Cache.add c ~key:k0 ~text:t0 i0);
  Alcotest.(check bool) "hit after add" true (Serve.Cache.find c k0 <> None);
  let k1, t1, i1 = mk_instance 1 in
  ignore (Serve.Cache.add c ~key:k1 ~text:t1 i1);
  (* Touch k0 so k1 is the LRU victim when k2 arrives. *)
  ignore (Serve.Cache.find c k0);
  let k2, t2, i2 = mk_instance 2 in
  ignore (Serve.Cache.add c ~key:k2 ~text:t2 i2);
  Alcotest.(check int) "LRU bound holds" 2 (Serve.Cache.size c);
  Alcotest.(check bool) "LRU victim evicted" true
    (Serve.Cache.find c k1 = None);
  Alcotest.(check bool) "recently-used survivor" true
    (Serve.Cache.find c k0 <> None);
  let s = Serve.Cache.stats c in
  Alcotest.(check int) "hits" 3 s.c_hits;
  Alcotest.(check int) "misses" 2 s.c_misses;
  Alcotest.(check int) "evictions" 1 s.c_evictions;
  (* A racing add returns the incumbent instance, not the newcomer. *)
  let _, _, dup = mk_instance 0 in
  Alcotest.(check bool) "incumbent wins an add race" true
    (Serve.Cache.add c ~key:k0 ~text:t0 dup == i0)

let test_cache_persistence () =
  let dir = tmp_name "sdfg-cache" in
  let c = Serve.Cache.create ~capacity:8 ~dir () in
  let entries = List.map mk_instance [ 0; 1; 2 ] in
  List.iter
    (fun (k, t, i) -> ignore (Serve.Cache.add c ~key:k ~text:t i))
    entries;
  (* Simulated restart: a fresh cache over the same directory comes up
     warm, and its rebuilt instances produce bit-identical runs. *)
  let c' = Serve.Cache.create ~capacity:8 ~dir () in
  Alcotest.(check int) "restart restores all entries" 3 (Serve.Cache.size c');
  List.iteri
    (fun n (k, _, original) ->
      match Serve.Cache.find c' k with
      | None -> Alcotest.fail (Fmt.str "entry %d lost across restart" n)
      | Some rebuilt ->
        let g = Exec.Instance.graph original in
        let symbols = Exec.Instance.symbols original in
        let fresh () = Interp.Profile.make_args ~symbols g in
        let a = fresh () and b = fresh () in
        ignore (Exec.Instance.run ~args:a original);
        ignore (Exec.Instance.run ~args:b rebuilt);
        List.iter2
          (fun (arg, t) (_, t') ->
            Alcotest.(check (list int64))
              (Fmt.str "entry %d: %S identical after restart" n arg)
              (tensor_bits t) (tensor_bits t'))
          a b)
    entries;
  (* A corrupt graph file must be skipped, not fatal. *)
  let k0, _, _ = List.hd entries in
  Out_channel.with_open_bin
    (Filename.concat dir (k0 ^ ".sdfg"))
    (fun oc -> output_string oc "(not an sdfg");
  let c'' = Serve.Cache.create ~capacity:8 ~dir () in
  Alcotest.(check int) "corrupt entry skipped" 2 (Serve.Cache.size c'')

(* Shared cache, concurrent lookups from several domains: every domain's
   runs must be bit-identical to an uncached direct run.  Instances pin
   domains = 1 — the compiled engine's domain pool may only be driven
   from the main domain, which sits idle here. *)
let test_cache_concurrent domains () =
  let seeds = [ 0; 1; 2; 3 ] in
  let cache = Serve.Cache.create ~capacity:8 () in
  let entries =
    List.map
      (fun seed ->
        let k, t, i = mk_instance seed in
        ignore (Serve.Cache.add cache ~key:k ~text:t i);
        let g = Fuzz.Gen.generate seed in
        let symbols = Fuzz.Gen.symbols_for g in
        let expected = Interp.Profile.make_args ~symbols g in
        ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
        (k, g, symbols, expected))
      seeds
  in
  let failures = Atomic.make 0 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for round = 0 to 4 do
              List.iter
                (fun (k, g, symbols, expected) ->
                  ignore (round, d);
                  match Serve.Cache.find cache k with
                  | None -> Atomic.incr failures
                  | Some inst ->
                    let args = Interp.Profile.make_args ~symbols g in
                    ignore (Exec.Instance.run ~args inst);
                    if
                      not
                        (List.for_all2
                           (fun (_, t) (_, t') ->
                             tensor_bits t = tensor_bits t')
                           args expected)
                    then Atomic.incr failures)
                entries
            done))
  in
  List.iter Domain.join spawned;
  Alcotest.(check int)
    (Fmt.str "%d domains: cached runs bit-identical to uncached" domains)
    0 (Atomic.get failures);
  let s = Serve.Cache.stats cache in
  Alcotest.(check int) "every lookup hit"
    (domains * 5 * List.length seeds)
    s.c_hits

(* --- metrics ------------------------------------------------------------- *)

let test_metrics () =
  let m = Serve.Metrics.create () in
  List.iter
    (fun l -> Serve.Metrics.record_request m ~ok:true ~batched:false ~latency_s:l)
    [ 0.010; 0.020; 0.030; 0.040; 0.100 ];
  Serve.Metrics.record_request m ~ok:false ~batched:true ~latency_s:0.5;
  Serve.Metrics.record_shed m;
  Serve.Metrics.queue_changed m 3;
  Serve.Metrics.queue_changed m 1;
  let s = Serve.Metrics.snapshot m in
  Alcotest.(check int) "requests" 6 s.s_requests;
  Alcotest.(check int) "errors" 1 s.s_errors;
  Alcotest.(check int) "shed" 1 s.s_shed;
  Alcotest.(check int) "batched" 1 s.s_batched;
  Alcotest.(check int) "queue depth" 1 s.s_queue_depth;
  Alcotest.(check int) "max queue depth" 3 s.s_max_queue_depth;
  Alcotest.(check bool) "p50 <= p95 <= p99" true
    (s.s_p50_s <= s.s_p95_s && s.s_p95_s <= s.s_p99_s);
  Alcotest.(check (float 1e-9)) "p99 is the tail" 0.5 s.s_p99_s

(* --- server end-to-end --------------------------------------------------- *)

let with_server ?cache_dir ?programs f =
  let socket = tmp_name "sdfg-serve" ^ ".sock" in
  let srv = Serve.Server.start ?cache_dir ?programs ~socket () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Serve.Server.wait srv)
    (fun () -> f socket srv)

let test_server_basic () =
  with_server ~programs:[ ("mm", Workloads.Kernels.matmul) ]
    (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          Alcotest.(check bool) "ping" true (Serve.Client.ping c);
          let symbols = [ ("M", 6); ("N", 5); ("K", 4) ] in
          let g = Workloads.Kernels.matmul () in
          let expected = Interp.Profile.make_args ~symbols g in
          ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
          let check_result tag = function
            | Error e -> Alcotest.fail (tag ^ ": " ^ e)
            | Ok (r : Protocol.run_result) ->
              List.iter
                (fun (n, want) ->
                  match List.assoc_opt n r.rs_outputs with
                  | None -> Alcotest.fail (tag ^ ": missing output " ^ n)
                  | Some got ->
                    Alcotest.(check (list int64))
                      (Fmt.str "%s: %S bit-identical" tag n)
                      (tensor_bits want) (tensor_bits got))
                expected;
              r
          in
          (* By name: first a miss, then a hit; by key: also a hit. *)
          let args () = Interp.Profile.make_args ~symbols g in
          let r1 =
            check_result "by-name"
              (Serve.Client.run ~symbols ~config:compiled_1 ~args:(args ()) c
                 (Protocol.Prog_name "mm"))
          in
          Alcotest.(check bool) "first request misses" false r1.rs_hit;
          let r2 =
            check_result "by-name-again"
              (Serve.Client.run ~symbols ~config:compiled_1 ~args:(args ()) c
                 (Protocol.Prog_name "mm"))
          in
          Alcotest.(check bool) "second request hits" true r2.rs_hit;
          let r3 =
            check_result "by-key"
              (Serve.Client.run ~symbols ~config:compiled_1 ~args:(args ()) c
                 (Protocol.Prog_key r1.rs_key))
          in
          Alcotest.(check bool) "key request hits" true r3.rs_hit;
          (* Errors come back typed, with the connection still usable. *)
          (match
             Serve.Client.run ~symbols c (Protocol.Prog_name "no-such")
           with
          | Error e ->
            Alcotest.(check bool) "unknown program reported" true
              (String.length e > 0)
          | Ok _ -> Alcotest.fail "unknown program must error");
          (match
             Serve.Client.run ~symbols c
               (Protocol.Prog_key (String.make 32 '0'))
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "unknown key must error");
          (match
             Serve.Client.run c (Protocol.Prog_sdfg "(garbage")
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "unparsable program must error");
          Alcotest.(check bool) "still alive after errors" true
            (Serve.Client.ping c);
          match Serve.Client.stats c with
          | Error e -> Alcotest.fail e
          | Ok j -> (
            match Option.bind (Json.member "requests" j) Json.to_int_opt with
            | Some n ->
              Alcotest.(check bool) "stats counted the runs" true (n >= 3)
            | None -> Alcotest.fail "stats missing request counter")))

(* 100+ concurrent fuzz-generated requests at 2 domains, checked
   bit-identical to direct Exec.run.  Expected outputs are computed
   before the server starts: the domain pool is not reentrant, so the
   executor must be its only user while requests are in flight. *)
let test_server_concurrent () =
  let config =
    Exec.Config.(
      default |> with_engine Interp.Plan.compiled |> with_domains 2)
  in
  let seeds = List.init 10 Fun.id in
  let expected =
    List.map
      (fun seed ->
        let g = Fuzz.Gen.generate seed in
        let symbols = Fuzz.Gen.symbols_for g in
        let args = Interp.Profile.make_args ~symbols g in
        ignore (Exec.run ~config ~symbols ~args g);
        (seed, (Serialize.to_string g, g, symbols, args)))
      seeds
  in
  (* Float WCR/Reduce graphs may legally reorder their accumulation at
     2 domains (same policy as the parallel cross-validation oracle), so
     those compare approximately; everything else must be bit-exact. *)
  let matches g (want : Tensor.t) (got : Tensor.t) =
    if Fuzz.Oracle.float_accumulation g then Tensor.approx_equal want got
    else tensor_bits want = tensor_bits got
  in
  with_server (fun socket srv ->
      let clients = 4 and per_client = 26 in
      let failures = Atomic.make 0 and hits = Atomic.make 0 in
      let threads =
        List.init clients (fun w ->
            Thread.create
              (fun () ->
                let c = Serve.Client.connect socket in
                Fun.protect
                  ~finally:(fun () -> Serve.Client.close c)
                  (fun () ->
                    for i = 0 to per_client - 1 do
                      let seed = (w + (i * clients)) mod List.length seeds in
                      let text, g, symbols, want = List.assoc seed expected in
                      (* make_args is deterministic: these are the same
                         initial inputs the direct run above saw. *)
                      let args = Interp.Profile.make_args ~symbols g in
                      match
                        Serve.Client.run ~symbols ~config ~args c
                          (Protocol.Prog_sdfg text)
                      with
                      | Error _ -> Atomic.incr failures
                      | Ok r ->
                        if r.rs_hit then Atomic.incr hits;
                        if
                          not
                            (List.for_all
                               (fun (n, t) ->
                                 match List.assoc_opt n r.rs_outputs with
                                 | Some t' -> matches g t t'
                                 | None -> false)
                               want)
                        then Atomic.incr failures
                    done))
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int)
        (Fmt.str "%d concurrent requests all bit-identical"
           (clients * per_client))
        0 (Atomic.get failures);
      let s = Serve.Cache.stats (Serve.Server.cache srv) in
      Alcotest.(check int) "one plan per distinct graph"
        (List.length seeds) (s.c_entries + s.c_evictions);
      (* At most one miss per distinct graph: later requests are either
         cache hits or batched followers, both reported rs_hit = true. *)
      Alcotest.(check bool) "warm requests hit" true
        (Atomic.get hits >= (clients * per_client) - List.length seeds))

let test_server_persistent_restart () =
  let dir = tmp_name "sdfg-serve-cache" in
  let symbols = [ ("N", 16) ] in
  let g = Workloads.Kernels.copy () in
  let key =
    with_server ~cache_dir:dir (fun socket _srv ->
        let c = Serve.Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match
              Serve.Client.run ~symbols ~config:compiled_1
                ~args:(Interp.Profile.make_args ~symbols g)
                c
                (Protocol.Prog_sdfg (Serialize.to_string g))
            with
            | Ok r -> r.rs_key
            | Error e -> Alcotest.fail e))
  in
  (* A restarted daemon over the same cache directory serves the bare
     key — no program text attached — from its warm-loaded cache. *)
  with_server ~cache_dir:dir (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let expected = Interp.Profile.make_args ~symbols g in
          ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
          match
            Serve.Client.run ~symbols ~config:compiled_1
              ~args:(Interp.Profile.make_args ~symbols g)
              c (Protocol.Prog_key key)
          with
          | Error e -> Alcotest.fail ("key not served after restart: " ^ e)
          | Ok r ->
            Alcotest.(check bool) "restart serves the key as a hit" true
              r.rs_hit;
            List.iter
              (fun (n, want) ->
                match List.assoc_opt n r.rs_outputs with
                | Some got ->
                  Alcotest.(check (list int64))
                    (Fmt.str "%S identical after restart" n)
                    (tensor_bits want) (tensor_bits got)
                | None -> Alcotest.fail ("missing output " ^ n))
              expected))

(* Ndlang source over the wire: the daemon elaborates the text, keys the
   cache on the canonical serialized graph (so resubmission — and the
   same graph submitted as .sdfg text — hit), and the run is
   bit-identical to local elaboration + direct execution. *)
let test_server_ndlang () =
  let src = "# axpy over the wire\ninput A[N]\ninput B[N]\noutput C[N]\nC = A * 2.0 + B\n" in
  let symbols = [ ("N", 8) ] in
  let g = Builder.Ndlang.parse src in
  let expected = Interp.Profile.make_args ~symbols g in
  ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
  with_server (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let args () = Interp.Profile.make_args ~symbols g in
          let run tag program =
            match
              Serve.Client.run ~symbols ~config:compiled_1 ~args:(args ()) c
                program
            with
            | Error e -> Alcotest.fail (tag ^ ": " ^ e)
            | Ok (r : Protocol.run_result) ->
              List.iter
                (fun (n, want) ->
                  match List.assoc_opt n r.rs_outputs with
                  | None -> Alcotest.fail (tag ^ ": missing output " ^ n)
                  | Some got ->
                    Alcotest.(check (list int64))
                      (Fmt.str "%s: %S bit-identical" tag n)
                      (tensor_bits want) (tensor_bits got))
                expected;
              r
          in
          let r1 = run "ndlang" (Protocol.Prog_ndlang src) in
          Alcotest.(check bool) "first submission misses" false r1.rs_hit;
          let r2 = run "ndlang-again" (Protocol.Prog_ndlang src) in
          Alcotest.(check bool) "resubmission hits" true r2.rs_hit;
          Alcotest.(check string) "same key" r1.rs_key r2.rs_key;
          (* The canonical form is the cache identity: the elaborated
             graph submitted as .sdfg text shares the entry. *)
          let r3 = run "as-sdfg" (Protocol.Prog_sdfg (Serialize.to_string g)) in
          Alcotest.(check string) "text and sdfg share a key" r1.rs_key
            r3.rs_key;
          Alcotest.(check bool) "sdfg form hits" true r3.rs_hit;
          (* Malformed source errors with the line, connection intact. *)
          (match
             Serve.Client.run ~symbols c (Protocol.Prog_ndlang "output Z[N]\nZ = nope + 1.0\n")
           with
          | Error e ->
            let contains s sub =
              let n = String.length s and m = String.length sub in
              let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool) "error names the line" true
              (contains e "line 2")
          | Ok _ -> Alcotest.fail "undeclared container must error");
          Alcotest.(check bool) "alive after ndlang error" true
            (Serve.Client.ping c)))

(* The scenario workloads' Ndlang sources — the exact strings
   [Workloads.Attention] authors — accepted end-to-end: elaborated by
   the daemon, run bit-identically to local elaboration + direct
   execution on the same deterministic arguments, and keyed by the
   canonical serialized graph so resubmission hits. *)
let test_server_workload_ndlang () =
  let cases =
    [ ( "attention", Workloads.Attention.attention_src,
        Workloads.Attention.attention_mini,
        Workloads.Attention.attention_args, "O" );
      ( "conv-im2col", Workloads.Attention.conv_src,
        Workloads.Attention.conv_mini, Workloads.Attention.conv_args, "O2" )
    ]
  in
  with_server (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          List.iter
            (fun (tag, src, symbols, args_of, out) ->
              let g = Builder.Ndlang.parse src in
              let expected = args_of symbols in
              ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
              let run label =
                match
                  Serve.Client.run ~symbols ~config:compiled_1
                    ~args:(args_of symbols) c (Protocol.Prog_ndlang src)
                with
                | Error e -> Alcotest.fail (tag ^ " " ^ label ^ ": " ^ e)
                | Ok (r : Protocol.run_result) ->
                  (match List.assoc_opt out r.rs_outputs with
                  | None ->
                    Alcotest.fail
                      (Fmt.str "%s %s: missing output %S" tag label out)
                  | Some got ->
                    Alcotest.(check (list int64))
                      (Fmt.str "%s %s: %S matches direct execution" tag
                         label out)
                      (tensor_bits (List.assoc out expected))
                      (tensor_bits got));
                  r
              in
              let r1 = run "first" in
              Alcotest.(check bool)
                (tag ^ ": first submission misses") false r1.rs_hit;
              let r2 = run "again" in
              Alcotest.(check bool)
                (tag ^ ": resubmission hits") true r2.rs_hit;
              Alcotest.(check string)
                (tag ^ ": content-addressed key is stable") r1.rs_key
                r2.rs_key)
            cases))

(* A streaming session over the wire: stream_open holds the channel
   across push frames; output chunks flow back mid-run; the final done
   frame carries report + outputs; everything is bit-identical to a
   batch run with the same elements pre-loaded.  A second session over
   the same program is a plan-cache hit. *)
let test_server_stream () =
  let name, mk, input, output, symbols =
    match
      List.find_opt (fun (_, _, _, o, _) -> o <> None) Workloads.Streaming.all
    with
    | Some (n, mk, i, Some o, syms) -> (n, mk, i, o, syms)
    | _ -> Alcotest.fail "no streaming workload with an output stream"
  in
  ignore name;
  let g = mk () in
  let values = Workloads.Streaming.sample_values 40 7 in
  let inst = Exec.Instance.create ~config:compiled_1 ~symbols g in
  let batch_args = Interp.Profile.make_args ~symbols g in
  ignore (Exec.Instance.run ~args:batch_args ~stream_args:[ (input, values) ] inst);
  let batch_out = Exec.Instance.stream_contents inst output in
  let chunks =
    let rec go i acc =
      if i >= Array.length values then List.rev acc
      else
        let len = min 7 (Array.length values - i) in
        go (i + len) (Array.sub values i len :: acc)
    in
    go 0 []
  in
  with_server (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let session tag =
            match
              (* make_args is deterministic: the server starts from the
                 same initial tensors the batch baseline saw. *)
              Serve.Client.run_stream ~symbols ~config:compiled_1
                ~args:(Interp.Profile.make_args ~symbols g) ~input ~output c
                (Protocol.Prog_sdfg (Serialize.to_string g))
                chunks
            with
            | Error e -> Alcotest.fail (tag ^ ": " ^ e)
            | Ok (r, data) ->
              let got = Array.concat data in
              Alcotest.(check int)
                (tag ^ ": output element count")
                (Array.length batch_out) (Array.length got);
              Alcotest.(check bool)
                (tag ^ ": streamed output bit-identical to batch")
                true (got = batch_out);
              List.iter
                (fun (n, want) ->
                  match List.assoc_opt n r.rs_outputs with
                  | None -> Alcotest.fail (tag ^ ": missing output " ^ n)
                  | Some t ->
                    Alcotest.(check (list int64))
                      (Fmt.str "%s: %S bit-identical" tag n)
                      (tensor_bits want) (tensor_bits t))
                batch_args;
              r
          in
          let r1 = session "first session" in
          Alcotest.(check bool) "first session misses" false r1.rs_hit;
          let r2 = session "second session" in
          Alcotest.(check bool) "second session hits the plan cache" true
            r2.rs_hit;
          (* The connection is a plain request channel again. *)
          Alcotest.(check bool) "alive after sessions" true
            (Serve.Client.ping c)))

let test_server_shutdown_request () =
  let socket = tmp_name "sdfg-serve" ^ ".sock" in
  let srv = Serve.Server.start ~socket () in
  let c = Serve.Client.connect socket in
  Serve.Client.shutdown c;
  Serve.Client.close c;
  (* Must return promptly: the accept loop polls its stop flag. *)
  Serve.Server.wait srv;
  Alcotest.(check bool) "socket file released" false (Sys.file_exists socket)

let suite =
  [ Alcotest.test_case "Serialize.hash stability" `Quick test_hash;
    Alcotest.test_case "Config validation is typed" `Quick
      test_config_validate;
    Alcotest.test_case "Config domains precedence" `Quick
      test_config_precedence;
    Alcotest.test_case "Config JSON round-trip" `Quick test_config_json;
    Alcotest.test_case "config stream knobs" `Quick
      test_config_stream_knobs;
    Alcotest.test_case "length-prefixed frames" `Quick test_frames;
    Alcotest.test_case "tensor codec is bit-exact" `Quick test_tensor_codec;
    Alcotest.test_case "request JSON round-trip" `Quick
      test_request_roundtrip;
    Alcotest.test_case "cache key identity" `Quick test_cache_key;
    Alcotest.test_case "instance runs bit-identical" `Quick
      test_instance_bit_identical;
    Alcotest.test_case "cache hit/miss/evict accounting" `Quick
      test_cache_accounting;
    Alcotest.test_case "cache persists across restart" `Quick
      test_cache_persistence;
    Alcotest.test_case "cache shared by 2 domains" `Quick
      (test_cache_concurrent 2);
    Alcotest.test_case "cache shared by 4 domains" `Quick
      (test_cache_concurrent 4);
    Alcotest.test_case "metrics counters and percentiles" `Quick
      test_metrics;
    Alcotest.test_case "server round-trip, cache, errors" `Quick
      test_server_basic;
    Alcotest.test_case "server: 104 concurrent requests bit-identical"
      `Quick test_server_concurrent;
    Alcotest.test_case "server: persistent cache across restart" `Quick
      test_server_persistent_restart;
    Alcotest.test_case "server: ndlang source submissions" `Quick
      test_server_ndlang;
    Alcotest.test_case "server: attention and conv ndlang end-to-end"
      `Quick test_server_workload_ndlang;
    Alcotest.test_case "server: streaming session over the wire" `Quick
      test_server_stream;
    Alcotest.test_case "server: shutdown request" `Quick
      test_server_shutdown_request ]
