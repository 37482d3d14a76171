(* The query server end to end over a real Unix socket: wire answers
   must equal direct Eval answers (sequentially and under concurrent
   clients sharing one plan cache), overload must answer BUSY
   deterministically, and shutdown must unblock idle sessions. *)
open Strdb
open Helpers
module F = Formula

let b = Alphabet.binary

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let db = Workload.pair_db b ~seed:13 ~name:"pair" ~n:5 ~len:2

let with_server ?workers ?backlog ?domains ?cache_bound ?store ?(db = db) f =
  let socket = Filename.temp_file "strdb_test" ".sock" in
  let cfg =
    Server.config ?workers ?backlog ?domains ?cache_bound ?store ~socket b db
  in
  let srv = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f srv socket)

let with_client socket f =
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* The reference answer, straight through Eval on the same database. *)
let reference ?free src =
  let phi = Sparser.formula src in
  let free = match free with Some vs -> vs | None -> F.free_vars phi in
  match Eval.run b db ~free phi with
  | Ok rows -> rows
  | Error e -> Alcotest.fail e

let qtext = "pair(u,v) & S{[u,v]l{u=v}}"

let protocol_tests =
  [
    tc "PING answers" (fun () ->
        with_server (fun _ socket ->
            with_client socket (fun c -> check_bool "ping" true (Client.ping c))));
    tc "QUERY ≡ Eval.run" (fun () ->
        with_server (fun _ socket ->
            with_client socket (fun c ->
                match Client.query c qtext with
                | Error e -> Alcotest.fail e
                | Ok rows -> check_tuples "rows" (reference qtext) rows)));
    tc "QUERY[v,u] reorders the answer columns" (fun () ->
        with_server (fun _ socket ->
            with_client socket (fun c ->
                match Client.query c ~free:[ "v"; "u" ] qtext with
                | Error e -> Alcotest.fail e
                | Ok rows ->
                    check_tuples "rows" (reference ~free:[ "v"; "u" ] qtext) rows)));
    tc "EXPLAIN ≡ Eval.explain" (fun () ->
        with_server (fun _ socket ->
            with_client socket (fun c ->
                let want =
                  match Eval.explain b db (Sparser.formula qtext) with
                  | Ok steps -> List.map Plan.step_to_string steps
                  | Error e -> Alcotest.fail e
                in
                match Client.explain c qtext with
                | Error e -> Alcotest.fail e
                | Ok lines -> check_string_list "plan lines" want lines)));
    tc "ERR: parse error, unknown relation, bad free list, bad keyword"
      (fun () ->
        with_server (fun _ socket ->
            with_client socket (fun c ->
                let expect_err name req needle =
                  match Client.request c req with
                  | Ok _ -> Alcotest.failf "%s: expected ERR" name
                  | Error m ->
                      check_bool (name ^ ": message mentions " ^ needle) true
                        (contains m needle)
                in
                expect_err "parse" "QUERY S{<{" "parse";
                expect_err "unknown relation" "QUERY nosuch(x)" "nosuch";
                expect_err "bad free list" ("QUERY[u] " ^ qtext) "free";
                expect_err "unterminated free list" "QUERY[u,v pair(u,v)"
                  "unterminated";
                expect_err "bad keyword" "FROBNICATE 1" "request";
                expect_err "missing formula" "EXPLAIN" "request";
                (* the session survives every error *)
                check_bool "still alive" true (Client.ping c))));
    tc "STATS counts plan-cache hits for a repeated query" (fun () ->
        with_server ~cache_bound:128 (fun _ socket ->
            with_client socket (fun c ->
                ignore (Client.query c qtext);
                ignore (Client.query c qtext);
                match Client.stats c with
                | Error e -> Alcotest.fail e
                | Ok kv ->
                    let get k =
                      match List.assoc_opt k kv with
                      | Some v -> v
                      | None -> Alcotest.failf "STATS missing %s" k
                    in
                    check_bool "a miss planned it" true
                      (get "plan_cache_misses" >= 1);
                    check_bool "a hit reused it" true
                      (get "plan_cache_hits" >= 1);
                    check_bool "both queries counted" true (get "queries" >= 2))));
    tc "cache_bound 0 disables the plan cache" (fun () ->
        with_server ~cache_bound:0 (fun srv socket ->
            with_client socket (fun c ->
                ignore (Client.query c qtext);
                match Client.query c qtext with
                | Error e -> Alcotest.fail e
                | Ok rows ->
                    check_tuples "rows still correct" (reference qtext) rows;
                    let s = Plan_cache.stats (Server.cache srv) in
                    check_int "nothing retained" 0 s.Plan_cache.entries;
                    check_int "no hits possible" 0 s.Plan_cache.hits)));
    tc "STATS reports every registered memo after the server's own keys"
      (fun () ->
        with_server (fun _ socket ->
            with_client socket (fun c ->
                ignore (Client.query c qtext);
                match Client.stats c with
                | Error e -> Alcotest.fail e
                | Ok kv ->
                    let names = List.map fst (Memo.registered ()) in
                    List.iter
                      (fun n ->
                        check_bool (n ^ " is registered") true (List.mem n names))
                      [ "compile"; "index"; "optimize"; "product"; "limitation"; "generate" ];
                    List.iter
                      (fun n ->
                        List.iter
                          (fun field ->
                            let k = Printf.sprintf "memo_%s_%s" n field in
                            if not (List.mem_assoc k kv) then
                              Alcotest.failf "STATS missing %s" k)
                          [ "hits"; "misses"; "evictions"; "entries" ])
                      names;
                    check_string_list "the product counters come last"
                      [ "product_deferred"; "product_built"; "product_budget_fallbacks" ]
                      (List.filteri (fun i _ -> i >= List.length kv - 3) (List.map fst kv));
                    check_string_list "the server's keys come first"
                      [
                        "plan_cache_hits"; "plan_cache_misses"; "plan_cache_evictions";
                        "plan_cache_entries"; "plan_cache_bound"; "connections";
                        "busy_rejected"; "queries"; "errors";
                      ]
                      (List.filteri (fun i _ -> i < 9) (List.map fst kv)))));
    tc "STATS reports the server's store probes" (fun () ->
        let db =
          Workload.planted_motif_db ~seed:3 ~n:200 ~len:16 ~motif:"acgta"
            ~hit_rate:0.05
        in
        let dna = Alphabet.dna in
        let socket = Filename.temp_file "strdb_test" ".sock" in
        let srv =
          Server.start
            (Server.config ~store:(Store.create dna db) ~socket dna db)
        in
        Fun.protect
          ~finally:(fun () ->
            Server.stop srv;
            try Sys.remove socket with Sys_error _ -> ())
          (fun () ->
            with_client socket (fun c ->
                (match
                   Client.query c
                     "seq(x) & S{([x]l{T})*.[x]l{x='a'}.[x]l{x='c'}.[x]l{x='g'}.[x]l{x='t'}.[x]l{x='a'}.([x]l{T})*}"
                 with
                | Error e -> Alcotest.fail e
                | Ok rows -> check_int "planted rows" 10 (List.length rows));
                match Client.stats c with
                | Error e -> Alcotest.fail e
                | Ok kv ->
                    let get k =
                      match List.assoc_opt k kv with
                      | Some v -> v
                      | None -> Alcotest.failf "STATS missing %s" k
                    in
                    check_bool "the query probed the store" true
                      (get "store_probes" >= 1);
                    check_bool "candidates within the scanned rows" true
                      (get "store_candidate_rows" <= get "store_scanned_rows");
                    check_bool "rows scanned" true (get "store_scanned_rows" > 0))));
    tc "STATS: a cached plan is prepared once, so its filters stay unfused"
      (fun () ->
        with_server ~cache_bound:128 (fun _ socket ->
            with_client socket (fun c ->
                let q = "pair(u,v) & S{[u,v]l{u=v}} & S{[u]l{u='a'}}" in
                let was = Product.enabled () in
                Fun.protect ~finally:(fun () -> Product.set_enabled was) @@ fun () ->
                Product.set_enabled true;
                Product.clear_cache ();
                let p0 = Product.stats () in
                ignore (Client.query c q);
                ignore (Client.query c q);
                match Client.stats c with
                | Error e -> Alcotest.fail e
                | Ok kv ->
                    let get k =
                      match List.assoc_opt k kv with
                      | Some v -> v
                      | None -> Alcotest.failf "STATS missing %s" k
                    in
                    check_int "the pair's one request is deferred"
                      (p0.Product.deferred + 1) (get "product_deferred");
                    check_int "no product built"
                      (p0.Product.sync_built + p0.Product.seq_built)
                      (get "product_built");
                    check_int "no budget fallback" p0.Product.budget_fallbacks
                      (get "product_budget_fallbacks"))));
  ]

let overload_tests =
  [
    tc "BUSY: one worker, zero backlog, second connection rejected"
      (fun () ->
        with_server ~workers:1 ~backlog:0 (fun _ socket ->
            with_client socket (fun c1 ->
                (* A completed round-trip pins the only worker to c1. *)
                check_bool "first client served" true (Client.ping c1);
                with_client socket (fun c2 ->
                    match Client.request c2 "PING" with
                    | Error m ->
                        check_bool "rejected as busy" true (contains m "busy")
                    | Ok _ -> Alcotest.fail "second connection was admitted"));
            (* worker freed: a fresh connection is served again *)
            with_client socket (fun c3 ->
                check_bool "freed worker serves again" true (Client.ping c3))));
    tc "stop unblocks an idle session" (fun () ->
        let socket = Filename.temp_file "strdb_test" ".sock" in
        let srv = Server.start (Server.config ~socket b db) in
        let c = Client.connect socket in
        check_bool "served before stop" true (Client.ping c);
        Server.stop srv;
        (match Client.request c "PING" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "request succeeded after stop");
        Client.close c;
        Server.stop srv (* idempotent *));
    tc "close then reconnect at once, one worker: always served" (fun () ->
        with_server ~workers:1 ~backlog:0 (fun _ socket ->
            for i = 1 to 20 do
              with_client socket (fun c ->
                  check_bool (Printf.sprintf "round %d served" i) true
                    (Client.ping c))
            done));
    tc "a full queue rejects at once even when its session has sent a line"
      (fun () ->
        with_server ~workers:1 ~backlog:1 (fun srv socket ->
            with_client socket (fun c1 ->
                check_bool "first client served" true (Client.ping c1);
                (* The queued session's request sits unread, so its
                   descriptor reads ready until a worker takes it. *)
                let fd2 = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                Fun.protect
                  ~finally:(fun () -> Unix.close fd2)
                  (fun () ->
                    Unix.connect fd2 (Unix.ADDR_UNIX socket);
                    ignore (Unix.write_substring fd2 "PING\n" 0 5);
                    let accepted () =
                      let a, _, _, _ = Server.counters srv in
                      a
                    in
                    let deadline = Unix.gettimeofday () +. 10.0 in
                    while accepted () < 2 && Unix.gettimeofday () < deadline do
                      Unix.sleepf 0.001
                    done;
                    check_int "second connection accepted" 2 (accepted ());
                    let t0 = Unix.gettimeofday () in
                    with_client socket (fun c3 ->
                        match Client.request c3 "PING" with
                        | Error m ->
                            check_bool ("rejected as busy: " ^ m) true
                              (contains m "busy");
                            let waited = Unix.gettimeofday () -. t0 in
                            check_bool
                              (Printf.sprintf "rejected in %.3f s" waited)
                              true (waited < 0.2)
                        | Ok _ -> Alcotest.fail "third connection was admitted");
                    (* the queued session is served once c1 quits *)
                    check_bool "first client quits" true
                      (Client.request c1 "QUIT" = Ok []);
                    let ic = Unix.in_channel_of_descr fd2 in
                    check_string "queued session answered" "OK 0" (input_line ic)))));
    tc "BUSY is read even when the request is written after the close"
      (fun () ->
        with_server ~workers:1 ~backlog:0 (fun srv socket ->
            with_client socket (fun c1 ->
                check_bool "first client served" true (Client.ping c1);
                with_client socket (fun c2 ->
                    let rejected () =
                      let _, r, _, _ = Server.counters srv in
                      r
                    in
                    let deadline = Unix.gettimeofday () +. 10.0 in
                    while rejected () = 0 && Unix.gettimeofday () < deadline do
                      Unix.sleepf 0.001
                    done;
                    check_int "rejected" 1 (rejected ());
                    (* let the server finish writing BUSY and close *)
                    Unix.sleepf 0.05;
                    match Client.request c2 "PING" with
                    | Error m ->
                        check_bool ("rejected as busy: " ^ m) true
                          (contains m "busy")
                    | Ok _ -> Alcotest.fail "second connection was admitted"))));
  ]

let stress_tests =
  [
    slow_tc "4 concurrent clients ≡ sequential Eval, one shared cache"
      (fun () ->
        let mix =
          [|
            qtext;
            "pair(u,v) & S{[u]l{u='a'}}";
            "pair(u,v) & ~pair(v,u)";
            "pair(v,u)";
          |]
        in
        let expected = Array.map (fun q -> reference q) mix in
        with_server ~workers:4 ~cache_bound:128 (fun srv socket ->
            let client_rounds i =
              with_client socket (fun c ->
                  let bad = ref [] in
                  for j = 0 to 19 do
                    let q = (i + j) mod Array.length mix in
                    match Client.query c mix.(q) with
                    | Ok rows when rows = expected.(q) -> ()
                    | Ok _ -> bad := Printf.sprintf "%d: wrong rows" q :: !bad
                    | Error e -> bad := Printf.sprintf "%d: %s" q e :: !bad
                  done;
                  !bad)
            in
            let domains =
              List.init 4 (fun i -> Domain.spawn (fun () -> client_rounds i))
            in
            let bad = List.concat_map Domain.join domains in
            (match bad with
            | [] -> ()
            | m :: _ ->
                Alcotest.failf "%d divergent replies, e.g. %s"
                  (List.length bad) m);
            let s = Plan_cache.stats (Server.cache srv) in
            check_bool "the shared cache was hit" true (s.Plan_cache.hits > 0);
            (* find→prepare→add is not atomic, so concurrent sessions may
               each miss a key once; never more than clients × queries. *)
            check_bool "misses bounded by clients × distinct queries" true
              (s.Plan_cache.misses <= 4 * Array.length mix)));
  ]

(* Plan_cache in isolation: LRU eviction and the disabled bound. *)
let cache_tests =
  let parse src = Sparser.formula src in
  let prep cache src =
    let phi = parse src in
    Plan_cache.prepare cache b db ~free:(F.free_vars phi) phi
  in
  [
    tc "LRU: bound 2 evicts the stalest entry" (fun () ->
        let cache = Plan_cache.create ~bound:2 () in
        let q1 = qtext
        and q2 = "pair(u,v) & ~pair(v,u)"
        and q3 = "pair(v,u)" in
        List.iter
          (fun q ->
            match prep cache q with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
          [ q1; q2; q3 ];
        let s = Plan_cache.stats cache in
        check_int "two entries retained" 2 s.Plan_cache.entries;
        check_int "one eviction" 1 s.Plan_cache.evictions;
        (* q1 was stalest → evicted: preparing it again is a miss;
           q3 is fresh → a hit. *)
        ignore (prep cache q3);
        ignore (prep cache q1);
        let s' = Plan_cache.stats cache in
        check_int "q3 hit" 1 s'.Plan_cache.hits;
        check_int "q1 re-missed" 4 s'.Plan_cache.misses);
    tc "recency: a hit protects an entry from eviction" (fun () ->
        let cache = Plan_cache.create ~bound:2 () in
        let q1 = qtext and q2 = "pair(v,u)" and q3 = "pair(u,u)" in
        ignore (prep cache q1);
        ignore (prep cache q2);
        ignore (prep cache q1) (* refresh q1: q2 becomes stalest *);
        ignore (prep cache q3) (* evicts q2 *);
        ignore (prep cache q1);
        let s = Plan_cache.stats cache in
        check_int "q1 survived both rounds" 2 s.Plan_cache.hits;
        check_int "only q2 was evicted" 1 s.Plan_cache.evictions);
    tc "bound 0 never retains" (fun () ->
        let cache = Plan_cache.create ~bound:0 () in
        ignore (prep cache qtext);
        ignore (prep cache qtext);
        let s = Plan_cache.stats cache in
        check_int "no entries" 0 s.Plan_cache.entries;
        check_int "no hits" 0 s.Plan_cache.hits;
        check_int "every lookup misses" 2 s.Plan_cache.misses);
    tc "distinct stores never share a plan" (fun () ->
        let st1 = Store.create b db and st2 = Store.create b db in
        let phi = Sparser.formula qtext in
        let free = F.free_vars phi in
        let k1 = Plan_cache.key ~sigma:b ~store:st1 ~free phi
        and k1' = Plan_cache.key ~sigma:b ~store:st1 ~free phi
        and k2 = Plan_cache.key ~sigma:b ~store:st2 ~free phi in
        check_bool "same store, same key" true (k1 = k1');
        check_bool "equal databases, different stores, different keys" false
          (k1 = k2));
  ]

(* Cached planning is invisible in the answers, enabled or disabled. *)
let qcheck_props =
  let cached = Plan_cache.create ~bound:64 () in
  let uncached = Plan_cache.create ~bound:0 () in
  [
    Test_qcheck.prop ~count:30 "Plan_cache.prepare ≡ Eval.run (bound 64 and 0)"
      (Test_qcheck.arb_sformula [ "u"; "v" ])
      (fun s ->
        let phi = F.And (F.Rel ("pair", [ "u"; "v" ]), F.Str s) in
        let free = F.free_vars phi in
        let direct = Eval.run b db ~free phi in
        let via cache =
          match Plan_cache.prepare cache b db ~free phi with
          | Error e -> Error e
          | Ok plan -> Eval.execute plan
        in
        via cached = direct && via uncached = direct && via cached = direct);
  ]

let suites =
  [
    ("server.protocol", protocol_tests);
    ("server.overload", overload_tests);
    ("server.stress", stress_tests);
    ("server.plan-cache", cache_tests);
    ("server.qcheck", qcheck_props);
  ]
