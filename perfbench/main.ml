(* The strdb benchmark.

     main.exe --workload serve_hot|plan_cold|scan_bulk --seed N
              --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics; --trace 1 is a separate
   run on the same inputs that reports the per-layer metrics.  Every
   answer is checked; the last line of standard output is the JSON
   result, and a wrong answer makes the exit code non-zero.  See
   README.md for the workloads and metrics. *)

open Strdb
open Perfbench

let dna = Alphabet.dna
let out_dir = Filename.concat ".bench_build" "perfbench"
let setup_reps = 7
let min_count = 1000
let rounds = 10
let max_measure_seconds = 100.0

(* The stated tolerance on prepare.coverage and execute.coverage: the
   replicas of Eval.prepare and Eval.execute must account for this share
   of the real calls' time, or the traced run fails. *)
let coverage_lo = 0.8
let coverage_hi = 1.2

(* Pass C's repetitions of each fixed-mix query.  Coverage compares the
   median real call with the median replica; with five repetitions a
   switch of the host's speed between them moved scan_bulk's
   prepare.coverage between 0.94 and 1.15 from seed to seed. *)
let stage_reps = 15

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------ checks *)

(* Outcomes whose reply is not [Ok expected]. *)
let failures expected outcomes =
  List.length
    (List.filter
       (fun o ->
         match o.Load.reply with Ok rows -> rows <> expected o.Load.query | Error _ -> true)
       outcomes)

let reference_run ?store db (q : Mix.query) =
  match Eval.run ~domains:1 ?store dna db ~free:q.Mix.free q.Mix.phi with
  | Ok rows -> rows
  | Error e -> failwith (Printf.sprintf "reference for %s failed: %s" q.Mix.name e)

(* References for many distinct queries, computed on two domains once
   the timed phases are over.  They use the unfused plan alternative:
   answers must not depend on fusion, and skipping the product
   constructions makes the check several times cheaper than serving. *)
let references_parallel ?store db queries =
  let fused = Product.enabled () in
  Product.set_enabled false;
  Fun.protect ~finally:(fun () -> Product.set_enabled fused) @@ fun () ->
  let tbl = Hashtbl.create 1024 in
  let arr = Array.of_list queries in
  let half = Array.length arr / 2 in
  let compute lo hi () = List.init (hi - lo) (fun i -> (arr.(lo + i), reference_run ?store db arr.(lo + i))) in
  let other = Domain.spawn (compute half (Array.length arr)) in
  let mine = compute 0 half () in
  List.iter (fun (q, r) -> Hashtbl.replace tbl q.Mix.wire r) (mine @ Domain.join other);
  fun (q : Mix.query) -> Hashtbl.find tbl q.Mix.wire

(* ------------------------------------------------------------- setup *)

type served = {
  db : Database.t;
  store : Store.t;
  server : Serve.t;
  conns : Client.t array;
}

let socket_count = ref 0

let socket_path () =
  incr socket_count;
  Filename.concat out_dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !socket_count)

let close_served s =
  Array.iter Client.close s.conns;
  Serve.stop s.server

(* Inputs from the seed, the store, the forked server answering PING,
   and a warm-up pass of the V1 mix on both connections. *)
let serve_setup ~seed =
  let db = Mix.serve_db ~seed in
  let store = Store.create dna db in
  let server = Serve.start ~socket:(socket_path ()) ~store dna db in
  match
    Serve.wait_ready server;
    Array.init 2 (fun _ -> Client.connect server.Serve.socket)
  with
  | exception e ->
      Serve.stop server;
      raise e
  | conns ->
      let s = { db; store; server; conns } in
      Array.iter
        (fun c ->
          Array.iter
            (fun q ->
              match Client.query c q.Mix.wire with
              | Ok _ -> ()
              | Error e ->
                  close_served s;
                  failwith ("warm-up failed: " ^ e))
            (Mix.v1_mix ()))
        conns;
      s

(* Reference answers for served requests: one per template on serve_hot,
   one per distinct request of [queries] on plan_cold. *)
let served_expected ~workload s queries =
  if workload = "serve_hot" then begin
    let refs = Array.map (reference_run ~store:s.store s.db) (Mix.v1_mix ()) in
    fun q -> refs.(q.Mix.kind)
  end
  else references_parallel ~store:s.store s.db queries

let bulk_setup ~seed =
  let db = Mix.bulk_db ~seed in
  let mix = Mix.bulk_mix ~seed db in
  Array.iter (fun b -> ignore (reference_run db b.Mix.query)) mix;
  (db, mix)

(* One set-up from a cold engine and a compacted heap, timed. *)
let fresh_setup setup =
  Layers.clear_engine_caches ();
  Gc.compact ();
  Clock.time setup

(* A child, forked before any set-up and any domain, that makes and
   times one more set-up each time it is asked.  A set-up takes well
   under a second and this host's speed drifts over seconds, so set-ups
   made back to back sample one moment of the host, where set-ups spread
   over the run's measurement rounds sample it as the throughput metrics
   do.  The parent cannot make them itself once it has spawned a domain
   (OCaml 5 refuses [Unix.fork] then, and the served set-up forks its
   server); in a child they also leave the parent's heap and engine
   caches as the measurement left them. *)
type setup_timer = { pid : int; req : out_channel; res : in_channel; mutable stopped : bool }

let setup_timer setup release =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close res_r;
      let req = Unix.in_channel_of_descr req_r and res = Unix.out_channel_of_descr res_w in
      let rec serve () =
        match input_char req with
        | 's' ->
            let s, dt = fresh_setup setup in
            release s;
            Printf.fprintf res "%h\n%!" dt;
            serve ()
        | _ | (exception End_of_file) -> ()
      in
      Unix._exit (match serve () with () -> 0 | exception _ -> 2)
  | pid ->
      Unix.close req_r;
      Unix.close res_w;
      { pid; req = Unix.out_channel_of_descr req_w; res = Unix.in_channel_of_descr res_r; stopped = false }

let time_setup t =
  output_char t.req 's';
  flush t.req;
  match input_line t.res with
  | line -> float_of_string line
  | exception End_of_file -> failwith "perfbench: the set-up timer died"

(* An explicit quit: the served set-ups' server children hold copies of
   the request pipe, so the timer would not see it close. *)
let stop_timer t =
  if not t.stopped then begin
    t.stopped <- true;
    (try
       output_char t.req 'q';
       close_out t.req
     with Sys_error _ -> ());
    close_in_noerr t.res;
    Serve.waitpid_retry t.pid
  end

(* The kept set-up, made first; [between k], which Load.alternate calls
   after measurement round [k], has the timer make one more after each
   of the first [setup_reps - 1] rounds; [finish ()] stops the timer and
   gives every set-up's time as measured and at the reference speed
   (divided by the slowness the gauge reads around it).  setup_s is the
   median of the latter. *)
let spread_setups gauge setup release =
  let timer = setup_timer setup release in
  match Speed.around gauge (fun () -> fresh_setup setup) with
  | exception e ->
      stop_timer timer;
      raise e
  | (kept, dt), slow ->
      let times = ref [ (dt, dt /. slow) ] in
      let between k =
        if k < setup_reps - 1 then begin
          let dt, slow = Speed.around gauge (fun () -> time_setup timer) in
          times := (dt, dt /. slow) :: !times
        end
      in
      let finish () =
        stop_timer timer;
        List.rev !times
      in
      (kept, between, finish)

(* Round-robin over [mix], starting at [offset]. *)
let round_robin mix offset =
  let i = ref offset in
  fun () ->
    let q = mix.(!i mod Array.length mix) in
    incr i;
    q

(* ------------------------------------------------------------ output *)

type metric = { name : string; value : float; unit_ : string }

let result ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
                metrics) );
       ])

let write_record ~workload ~seed ~seconds ~trace fields =
  mkdir_p out_dir;
  let path =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (Bool.to_int trace))
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          ([
             ("workload", Json.Str workload);
             ("seed", Json.Int seed);
             ("seconds", Json.Num seconds);
             ("trace", Json.Bool trace);
             ("host_cores", Json.Int (Domain.recommended_domain_count ()));
             ("ocaml_version", Json.Str Sys.ocaml_version);
           ]
          @ fields)));
  output_char oc '\n';
  close_out oc

let summary_json (s : Load.summary) =
  Json.Obj
    [
      ("samples", Json.Int s.Load.attempted);
      ("completed", Json.Int s.Load.completed);
      ("qps", Json.Num s.Load.qps);
      ("p50_ms", Json.Num s.Load.p50_ms);
      ("p99_ms", Json.Num s.Load.p99_ms);
      ( "highest_percentile_with_ten_beyond",
        match s.Load.tail with Some p -> Json.Num p | None -> Json.Str "none" );
    ]

(* Per template: latency quartiles in ms. *)
let kinds_json names outcomes =
  Json.Obj
    (List.map
       (fun k ->
         let lats =
           Stats.sorted
             (Array.of_list
                (List.filter_map
                   (fun o -> if o.Load.query.Mix.kind = k then Some (o.Load.lat *. 1e3) else None)
                   outcomes))
         in
         (names.(k), Json.List (List.map (fun p -> Json.Num (Stats.percentile lats p)) [ 25.; 50.; 75. ])))
       (List.sort_uniq compare (List.map (fun o -> o.Load.query.Mix.kind) outcomes)))

let tail_json names outcomes =
  Json.Obj (List.map (fun (k, n) -> (names.(k), Json.Int n)) (Load.tail_by_kind outcomes 99.0))

(* ------------------------------------------------------- end to end *)

let end_to_end ~workload ~seed ~seconds =
  let gauge = Speed.create () in
  let measure between one two =
    Load.alternate ~between
      ~pause:(fun () -> Speed.tick gauge)
      ~seconds ~rounds ~min_count ~max_seconds:max_measure_seconds one two
  in
  let slices1, slices2, setups, expected, sanity, names =
    match workload with
    | "scan_bulk" ->
        let (db, mix), between, finish = spread_setups gauge (fun () -> bulk_setup ~seed) ignore in
        let queries = Mix.bulk_cycle mix in
        let step offset =
          let next = round_robin queries offset in
          fun () -> Load.in_process dna db (next ())
        in
        let r1, r2 =
          Fun.protect ~finally:(fun () -> ignore (finish ())) @@ fun () ->
          measure between [ step 0 ] [ step 0; step (Array.length queries / 2) ]
        in
        let setups = finish () in
        let refs = Array.map (fun b -> b.Mix.reference ()) mix in
        (r1, r2, setups, (fun q -> refs.(q.Mix.kind)), [ ("store_probes", 0) ],
         Array.map (fun b -> b.Mix.query.Mix.name) mix)
    | _ ->
        let s, between, finish = spread_setups gauge (fun () -> serve_setup ~seed) close_served in
        Fun.protect ~finally:(fun () -> close_served s; ignore (finish ())) @@ fun () ->
        let mix = Mix.v1_mix () in
        let next =
          if workload = "serve_hot" then round_robin (Mix.rotate Mix.serve_rotation mix)
          else
            let cold = Mix.cold_stream ~seed s.db in
            fun _ () -> Mix.next_cold cold
        in
        let step c offset =
          let next = next offset in
          fun () -> Load.over_wire c (next ())
        in
        let before = Serve.stats s.conns.(0) in
        let r1, r2 =
          measure between [ step s.conns.(0) 0 ] [ step s.conns.(0) 0; step s.conns.(1) 4 ]
        in
        let setups = finish () in
        let after = Serve.stats s.conns.(0) in
        close_served s;
        let d = Serve.delta before after in
        let probes_before = (Store.probe_stats s.store).Store.probes in
        let expected =
          served_expected ~workload s
            (List.concat_map (fun (o, _) -> List.map (fun o -> o.Load.query) o) (r1 @ r2))
        in
        let sanity =
          [
            ("plan_cache_hits", d "plan_cache_hits");
            ("plan_cache_misses", d "plan_cache_misses");
            ("busy_rejected", d "busy_rejected");
            ("server_errors", d "errors");
            ("store_probes", (Store.probe_stats s.store).Store.probes - probes_before);
          ]
        in
        (r1, r2, setups, expected, sanity, Mix.template_names)
  in
  let (one, wall1), (two, wall2) = (Load.pooled slices1, Load.pooled slices2) in
  let r1 = Load.summarize one wall1 and r2 = Load.summarize two wall2 in
  (* At the reference speed: times divided by the run's slowness, rates
     multiplied; each set-up by the slowness read around it. *)
  let slowness = Speed.slowness gauge in
  let s1 = Load.at_reference slowness r1 and s2 = Load.at_reference slowness r2 in
  let setup_s = Stats.median (Array.of_list (List.map snd setups)) in
  let slice_qps slices =
    Json.List (List.map (fun (o, w) -> Json.Num (float_of_int (List.length o) /. w)) slices)
  in
  let attempted = s1.Load.attempted + s2.Load.attempted in
  let failed = failures expected one + failures expected two in
  let get k = List.assoc k sanity in
  let sane, why =
    match workload with
    | "serve_hot" ->
        (get "plan_cache_misses" = 0 && get "busy_rejected" = 0 && get "store_probes" > 0,
         "serve_hot expects plan-cache hit ratio 1.0, no BUSY, probes on the store")
    | "plan_cold" ->
        (get "plan_cache_hits" = 0 && get "busy_rejected" = 0,
         "plan_cold expects plan-cache hit ratio 0.0 and no BUSY")
    | _ -> (get "store_probes" = 0, "scan_bulk expects no index probes")
  in
  let metrics_of setup_s s1 s2 =
    [
      { name = "setup_s"; value = setup_s; unit_ = "s" };
      { name = "qps"; value = s1.Load.qps; unit_ = "queries/s" };
      { name = "p50_ms"; value = s1.Load.p50_ms; unit_ = "ms" };
      { name = "p99_ms"; value = s1.Load.p99_ms; unit_ = "ms" };
      { name = "qps_2conn"; value = s2.Load.qps; unit_ = "queries/s" };
      { name = "p50_ms_2conn"; value = s2.Load.p50_ms; unit_ = "ms" };
      { name = "p99_ms_2conn"; value = s2.Load.p99_ms; unit_ = "ms" };
    ]
  in
  let metrics = metrics_of setup_s s1 s2 in
  let raw = metrics_of (Stats.median (Array.of_list (List.map fst setups))) r1 r2 in
  let readings = Speed.readings gauge in
  let failed_share = float_of_int failed /. float_of_int (max 1 attempted) in
  List.iter2
    (fun m r -> say "%-14s %.6g %s  (as measured: %.6g)" m.name m.value m.unit_ r.value)
    metrics raw;
  say "%-14s %.6g fraction" "failed_share" failed_share;
  say "slowness       %.4f (interquartile mean of %d gauge readings over the reference %g ms)" slowness
    (Array.length readings) (Speed.reference *. 1e3);
  let tail s = match s.Load.tail with Some p -> Printf.sprintf "p%g" p | None -> "none" in
  say "samples: %d at 1 connection, %d at 2 (highest percentile with ten beyond: %s/%s)"
    s1.Load.attempted s2.Load.attempted (tail s1) (tail s2);
  List.iter (fun (k, v) -> say "sanity %s %d" k v) sanity;
  if not sane then say "sanity check FAILED: %s" why;
  write_record ~workload ~seed ~seconds ~trace:false
    [
      ("one_connection", summary_json s1);
      ("two_connections", summary_json s2);
      ("slice_qps_1conn", slice_qps slices1);
      ("slice_qps_2conn", slice_qps slices2);
      ("quartiles_ms_by_query_1conn", kinds_json names one);
      ("quartiles_ms_by_query_2conn", kinds_json names two);
      ("beyond_p99_by_query_1conn", tail_json names one);
      ("beyond_p99_by_query_2conn", tail_json names two);
      ("setup_s", Json.Num setup_s);
      ("setup_reps_s", Json.List (List.map (fun (x, _) -> Json.Num x) setups));
      ("setup_reps_s_at_reference", Json.List (List.map (fun (_, x) -> Json.Num x) setups));
      ("slowness", Json.Num slowness);
      ("gauge_ms", Json.List (List.map (fun x -> Json.Num (x *. 1e3)) (Array.to_list readings)));
      ("as_measured", Json.Obj (List.map (fun m -> (m.name, Json.Num m.value)) raw));
      ("failed_share", Json.Num failed_share);
      ("sanity", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) sanity));
    ];
  (failed = 0 && sane, attempted, failed, metrics)

(* ------------------------------------------------------------ traced *)

let mean_by_kind_diff a b =
  let common = List.filter_map (fun (k, x) -> Option.map (fun y -> y -. x) (List.assoc_opt k b)) a in
  Stats.mean (Array.of_list common)

(* What the traced passes run on: the wire passes' outcomes, the
   in-process request path and request streams, and the queries of the
   stage analysis. *)
type subject = {
  names : string array;
  path : Layers.path;
  next : unit -> Mix.query;  (** pass A's request stream. *)
  replay : Mix.query -> Mix.query;  (** pass B's request, given pass A's. *)
  analysed : Mix.query list -> Mix.query list * int;
      (** pass C's queries and repetitions, given pass B's stream. *)
  references : Mix.query list -> Mix.query -> Database.tuple list;
      (** reference answers for the given requests, to check pass A. *)
  stats : string -> int;  (** server [STATS] deltas over the wire passes (0 without). *)
  wire1 : Load.outcome list;
  wire2 : Load.outcome list;
  wire_failed : int;
}

(* One caller then two, [short] seconds each, answers checked. *)
let wire_passes ~short ~min_count step =
  let w1, _ = Load.phase ~seconds:short ~min_count ~max_seconds:30.0 [ step 0 ] in
  let w2, _ = Load.phase ~seconds:short ~min_count ~max_seconds:30.0 [ step 0; step 1 ] in
  (w1, w2)

let subject ~workload ~seed ~short =
  match workload with
  | "scan_bulk" ->
      let db, bulk = bulk_setup ~seed in
      let distinct = Array.map (fun b -> b.Mix.query) bulk in
      let rotation = Mix.bulk_cycle bulk in
      let step c =
        let next = round_robin rotation (c * Array.length rotation / 2) in
        fun () -> Load.in_process dna db (next ())
      in
      let w1, w2 = wire_passes ~short ~min_count:100 step in
      let refs = Array.map (fun b -> b.Mix.reference ()) bulk in
      let expected q = refs.(q.Mix.kind) in
      let references _ = expected in
      {
        names = Array.map (fun q -> q.Mix.name) distinct;
        path = { Layers.sigma = dna; db; store = None; cache = None };
        next = round_robin rotation 0;
        replay = Fun.id;
        analysed =
          (fun _ ->
            ( Array.to_list (Array.map (fun b -> b.Mix.query) (Mix.bulk_at_level bulk Mix.bulk_mid_level)),
              stage_reps ));
        references;
        stats = (fun _ -> 0);
        wire1 = w1;
        wire2 = w2;
        wire_failed = failures expected (w1 @ w2);
      }
  | _ ->
      let s = serve_setup ~seed in
      let mix = Mix.v1_mix () in
      let cold = Mix.cold_stream ~seed s.db in
      let stream offset =
        if workload = "serve_hot" then round_robin (Mix.rotate Mix.serve_rotation mix) offset
        else fun () -> Mix.next_cold cold
      in
      let before = Serve.stats s.conns.(0) in
      let (w1, w2), after =
        Fun.protect ~finally:(fun () -> close_served s) @@ fun () ->
        let step c =
          let next = stream (4 * c) in
          fun () -> Load.over_wire s.conns.(c) (next ())
        in
        let passes = wire_passes ~short ~min_count:200 step in
        (passes, Serve.stats s.conns.(0))
      in
      let references = served_expected ~workload s in
      let expected = references (List.map (fun o -> o.Load.query) (w1 @ w2)) in
      let hot = workload = "serve_hot" in
      {
        names = Mix.template_names;
        path =
          {
            Layers.sigma = dna;
            db = s.db;
            store = Some s.store;
            cache = Some (Plan_cache.create ~bound:Serve.plan_cache_bound ());
          };
        next = stream 0;
        replay = (if hot then Fun.id else fun _ -> Mix.next_cold cold);
        analysed =
          (fun b -> if hot then (Array.to_list mix, stage_reps) else (List.filteri (fun i _ -> i < 64) b, 1));
        references;
        stats = Serve.delta before after;
        wire1 = w1;
        wire2 = w2;
        wire_failed = failures expected (w1 @ w2);
      }

let traced ~workload ~seed ~seconds =
  let budget = seconds in
  let sub = subject ~workload ~seed ~short:(Float.max 0.5 (0.15 *. budget)) in
  let path = sub.path and names = sub.names in
  let c0 = Compile.stats () and l0 = Limitation.cache_stats () in
  (* warm the local plan cache and memos as the server's warm-up does *)
  if path.Layers.cache <> None then
    Array.iter (fun q -> ignore (Layers.request path q)) (Mix.v1_mix ());
  let r0 = Runtime.stats () in
  (* passes A and B, interleaved request by request so both see the same
     heap and host: A untraced (timed whole, GC counted around it), B the
     next request of its own stream under spans *)
  let a_budget = 0.4 *. budget in
  let trb = Trace.create () in
  let minor = ref 0 and major = ref 0 and promoted = ref 0.0 in
  let t0 = Clock.now () in
  let rec passes acc =
    if Clock.now () -. t0 >= a_budget && List.length acc >= 2 * Array.length names then
      List.rev acc
    else begin
      let q = sub.next () in
      let g0 = Gc.quick_stat () in
      let r, dt = Clock.time (fun () -> Layers.request path q) in
      let g1 = Gc.quick_stat () in
      minor := !minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
      major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
      promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
      let qb = sub.replay q in
      Trace.set_request trb (List.length acc);
      ignore (Trace.span trb "request" (fun () -> Layers.request ~tr:trb path qb));
      passes ((q, r, dt, qb) :: acc)
    end
  in
  let ab = passes [] in
  let a = List.map (fun (q, r, dt, _) -> (q, r, dt)) ab in
  let b_queries = List.map (fun (_, _, _, qb) -> qb) ab in
  let n_a = float_of_int (List.length a) in
  let a_total = List.fold_left (fun s (_, _, dt) -> s +. dt) 0.0 a in
  let a_failed =
    let expected = sub.references (List.map (fun (q, _, _) -> q) a) in
    List.length (List.filter (fun (q, r, _) -> r <> Ok (expected q)) a)
  in
  let c1 = Compile.stats () and l1 = Limitation.cache_stats () and r1 = Runtime.stats () in
  let n_b = float_of_int (List.length b_queries) in
  let tb = Trace.totals (Trace.spans trb) in
  (* pass C: stage analysis with engine caches cleared *)
  let analysed, reps = sub.analysed b_queries in
  let trc = Trace.create () in
  let counts = Layers.new_counts () in
  let probe0 = Option.map Store.probe_stats path.Layers.store and p0 = Product.stats () in
  let c_deadline = Clock.now () +. Float.max 1.0 (0.3 *. budget) in
  let n_c = ref 0 in
  List.iteri
    (fun i (q : Mix.query) ->
      if Clock.now () < c_deadline || !n_c < 8 then
        for _ = 1 to reps do
          incr n_c;
          Trace.set_request trc i;
          let store = path.Layers.store and db = path.Layers.db in
          Layers.clear_engine_caches ();
          let plan =
            Trace.span trc "prepare.real" (fun () -> Eval.prepare ?store dna db ~free:q.Mix.free q.Mix.phi)
          in
          Layers.clear_engine_caches ();
          Trace.span trc "prepare.replica" (fun () -> Layers.prepare_replica trc ?store dna db q.Mix.phi);
          match plan with
          | Error e -> failwith ("traced prepare failed: " ^ e)
          | Ok plan ->
              ignore (Eval.execute plan);
              ignore (Trace.span trc "execute.real" (fun () -> Eval.execute plan));
              Trace.span trc "execute.replica" (fun () -> Layers.execute_replica trc counts plan)
        done)
    analysed;
  let n_c = float_of_int !n_c in
  let p1 = Product.stats () in
  let spans_c = Trace.spans trc in
  let tc = Trace.totals spans_c in
  let per_c name = Trace.self_ms tc name /. n_c in
  let prepares = 2.0 *. n_c in
  let probes, verify =
    match (probe0, path.Layers.store) with
    | Some p0, Some st ->
        let p1 = Store.probe_stats st in
        ( float_of_int (p1.Store.probes - p0.Store.probes) /. prepares,
          Stats.ratio
            (float_of_int (p1.Store.candidate_rows - p0.Store.candidate_rows))
            (float_of_int (p1.Store.scanned_rows - p0.Store.scanned_rows)) )
    | _ -> (0.0, 0.0)
  in
  let hit_ratio h m = Stats.ratio (float_of_int h) (float_of_int (h + m)) in
  (* per-kind latencies: wire vs in-process, one vs two callers *)
  let inproc =
    Load.median_by_kind (List.map (fun (q, r, dt) -> { Load.query = q; lat = dt; reply = r }) a)
  in
  let k1 = Load.median_by_kind sub.wire1 and k2 = Load.median_by_kind sub.wire2 in
  let wire_ms = if path.Layers.cache = None then 0.0 else mean_by_kind_diff inproc k1 in
  let d = sub.stats in
  let fi = float_of_int in
  let m name value unit_ = { name; value; unit_ } in
  let metrics =
    [
      m "parse.ms" (Trace.self_ms tb "parse" /. n_b) "ms";
      m "plan_cache.hit_ratio" (hit_ratio (d "plan_cache_hits") (d "plan_cache_misses")) "ratio";
      m "plan_cache.evictions" (fi (d "plan_cache_evictions")) "count";
      m "plan_cache.lookup_us"
        (1e3 *. Stats.ratio (Trace.dur_ms tb "plan_cache.lookup") (fi (Trace.count tb "plan_cache.lookup")))
        "us";
      m "prepare.ms" (Trace.self_ms tb "prepare" /. n_b) "ms";
      m "prepare.cold_ms" (per_c "prepare.real") "ms";
      m "prepare.coverage"
        (Trace.coverage spans_c ~real:"prepare.real" ~replica:"prepare.replica")
        "ratio";
      m "compile.ms" (per_c "compile") "ms";
      m "compile.hit_ratio" (hit_ratio (c1.Compile.hits - c0.Compile.hits) (c1.Compile.misses - c0.Compile.misses)) "ratio";
      m "optimize.ms" (per_c "optimize") "ms";
      m "fuse.ms" (per_c "fuse") "ms";
      m "fuse.built"
        (fi (p1.Product.sync_built + p1.Product.seq_built - p0.Product.sync_built - p0.Product.seq_built)
        /. prepares)
        "count";
      m "fuse.budget_fallbacks"
        (fi (p1.Product.budget_fallbacks - p0.Product.budget_fallbacks) /. prepares)
        "count";
      m "certify.ms" (per_c "certify") "ms";
      m "certify.hit_ratio" (hit_ratio (l1.Limitation.hits - l0.Limitation.hits) (l1.Limitation.misses - l0.Limitation.misses)) "ratio";
      m "probe.ms" (per_c "probe") "ms";
      m "probe.select_ms" (per_c "probe.select") "ms";
      m "probe.count" probes "count";
      m "probe.verify_ratio" verify "ratio";
      m "annotate.ms" (per_c "annotate") "ms";
      m "execute.ms" (Trace.self_ms tb "execute" /. n_b) "ms";
      m "execute.coverage"
        (Trace.coverage spans_c ~real:"execute.real" ~replica:"execute.replica")
        "ratio";
      m "join.ms" (per_c "join") "ms";
      m "join.rows_out" (fi counts.Layers.join_out /. n_c) "rows";
      m "filter.ms" (per_c "filter") "ms";
      m "filter.ns_per_row"
        (Stats.ratio (Trace.dur_ms tc "filter" *. 1e6) (fi counts.Layers.filter_in))
        "ns/row";
      m "filter.rows_in" (fi counts.Layers.filter_in /. n_c) "rows";
      m "filter.pass_ratio" (Stats.ratio (fi counts.Layers.filter_out) (fi counts.Layers.filter_in)) "ratio";
      m "runtime.index_hit_ratio" (hit_ratio (r1.Runtime.hits - r0.Runtime.hits) (r1.Runtime.misses - r0.Runtime.misses)) "ratio";
      m "generate.ms" (per_c "generate") "ms";
      m "generate.rows_in" (fi counts.Layers.gen_in /. n_c) "rows";
      m "generate.rows_out" (fi counts.Layers.gen_out /. n_c) "rows";
      m "negfilter.ms" (per_c "negfilter") "ms";
      m "project.ms" (per_c "project") "ms";
      m "wire.ms" wire_ms "ms";
      m "wait.ms_2conn" (mean_by_kind_diff k1 k2) "ms";
      m "service.busy_rejected" (fi (d "busy_rejected")) "count";
      m "server.errors" (fi (d "errors")) "count";
      m "gc.minor_per_q" (fi !minor /. n_a) "count";
      m "gc.major_per_q" (fi !major /. n_a) "count";
      m "gc.promoted_kw_per_q" (!promoted /. 1e3 /. n_a) "kw";
      m "trace.overhead" (Stats.ratio (Trace.dur_ms tb "request" -. (a_total *. 1e3)) (a_total *. 1e3)) "ratio";
    ]
  in
  List.iter (fun m -> say "%-24s %.6g %s" m.name m.value m.unit_) metrics;
  let off_coverage =
    List.filter
      (fun m ->
        List.mem m.name [ "prepare.coverage"; "execute.coverage" ]
        && not (m.value >= coverage_lo && m.value <= coverage_hi))
      metrics
  in
  List.iter
    (fun m ->
      say "sanity check FAILED: %s = %.3f, outside %.1f–%.1f" m.name m.value coverage_lo coverage_hi)
    off_coverage;
  mkdir_p out_dir;
  let stem = Printf.sprintf "%s-seed%d" workload seed in
  Trace.write trb (Filename.concat out_dir (stem ^ "-request-spans.jsonl"));
  Trace.write trc (Filename.concat out_dir (stem ^ "-stage-spans.jsonl"));
  write_record ~workload ~seed ~seconds ~trace:true
    [
      ("requests_traced", Json.Int (List.length b_queries));
      ("plans_analysed", Json.Num n_c);
      ("wire_p50_ms_by_query", Json.Obj (List.map (fun (k, v) -> (names.(k), Json.Num v)) k1));
      ("inprocess_p50_ms_by_query", Json.Obj (List.map (fun (k, v) -> (names.(k), Json.Num v)) inproc));
      ("metrics", Json.Obj (List.map (fun m -> (m.name, Json.Num m.value)) metrics));
    ];
  let attempted = List.length sub.wire1 + List.length sub.wire2 + List.length a in
  let failed = sub.wire_failed + a_failed in
  (failed = 0 && off_coverage = [], attempted, failed, metrics)

(* -------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve_hot | plan_cold | scan_bulk");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "serve_hot"; "plan_cold"; "scan_bulk" ]) then begin
    prerr_endline "perfbench: --workload must be serve_hot, plan_cold or scan_bulk";
    exit 2
  end;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  mkdir_p out_dir;
  let run = if !trace = 1 then traced else end_to_end in
  match run ~workload:!workload ~seed:!seed ~seconds:!seconds with
  | correct, attempted, failed, metrics ->
      print_endline (result ~correct ~attempted ~failed metrics);
      if not correct then exit 1
  | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 3
