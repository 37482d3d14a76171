(* The domain pool: parallel map/filter equivalence with the sequential
   stdlib combinators, exception propagation, pool reuse across many
   regions, and a concurrent stress test hammering Run.accepts on shared
   compiled FSAs from 4 domains (exercising the domain-safe Runtime
   index cache and Compile memo).

   These tests use [Pool.create], which spawns exactly the requested
   worker count, so the multi-worker machinery runs even on single-core
   hosts where the engine-facing [Pool.get] clamps to the core count. *)
open Strdb
open Helpers

exception Boom

let with_pool size f =
  let pool = Pool.create size in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let pool_tests =
  [
    tc "map/filter/concat_map agree with stdlib across pool sizes" (fun () ->
        List.iter
          (fun size ->
            with_pool size (fun pool ->
                check_int "pool size" size (Pool.size pool);
                List.iter
                  (fun n ->
                    let input = List.init n (fun i -> (i * 7919) mod 101) in
                    let f x = (x * x) + 3 in
                    check_bool "map_list" true
                      (Pool.map_list pool f input = List.map f input);
                    let p x = x mod 3 = 0 in
                    check_bool "filter_list keeps order" true
                      (Pool.filter_list pool p input = List.filter p input);
                    let g x = List.init (x mod 4) (fun j -> x + j) in
                    check_bool "concat_map_list" true
                      (Pool.concat_map_list pool g input = List.concat_map g input))
                  [ 0; 1; 2; 7; 100; 1000 ]))
          [ 1; 2; 4 ]);
    tc "map_array runs f exactly once per element" (fun () ->
        with_pool 4 (fun pool ->
            let n = 512 in
            let counts = Array.init n (fun _ -> Atomic.make 0) in
            let out =
              Pool.map_array pool
                (fun i ->
                  Atomic.incr counts.(i);
                  i * 2)
                (Array.init n Fun.id)
            in
            check_bool "results" true (out = Array.init n (fun i -> i * 2));
            Array.iter (fun c -> check_int "one call" 1 (Atomic.get c)) counts));
    tc "a raising element propagates and the pool survives" (fun () ->
        with_pool 4 (fun pool ->
            let raised =
              try
                ignore
                  (Pool.map_list pool
                     (fun i -> if i = 37 then raise Boom else i)
                     (List.init 100 Fun.id));
                false
              with Boom -> true
            in
            check_bool "exception propagated" true raised;
            (* The region drained; the next region must still work. *)
            check_bool "pool still usable" true
              (Pool.map_list pool succ [ 1; 2; 3 ] = [ 2; 3; 4 ])));
    tc "pool is reusable across many regions" (fun () ->
        with_pool 2 (fun pool ->
            for round = 1 to 200 do
              let l = List.init 64 (fun i -> i + round) in
              if Pool.map_list pool (fun x -> x - round) l <> List.init 64 Fun.id
              then Alcotest.failf "round %d disagreed" round
            done));
    tc "get clamps shared pools to the core count" (fun () ->
        let cores = Domain.recommended_domain_count () in
        List.iter
          (fun n ->
            check_int
              (Printf.sprintf "get %d" n)
              (max 1 (min n cores))
              (Pool.size (Pool.get n)))
          [ 1; 2; 4; 8 ]);
    tc "STRDB_DOMAINS is only read when set" (fun () ->
        (* The suite may run with STRDB_DOMAINS exported (CI does); just
           pin down the parsing contract. *)
        match Sys.getenv_opt "STRDB_DOMAINS" with
        | None -> check_int "default" 1 (Pool.default_domains ())
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some n when n >= 1 ->
                check_int "env value" (min n 128) (Pool.default_domains ())
            | _ -> check_int "garbage -> 1" 1 (Pool.default_domains ())));
  ]

(* ------------------------------------------------------------------ *)
(* Concurrent stress: 4 domains hammer Run.accepts on shared compiled
   FSAs while also re-requesting the compilations, so the Runtime index
   cache and the Compile memo see concurrent hits, misses and
   move-to-front races.  Every domain must see the exact verdicts the
   sequential reference computed. *)

let stress_tests =
  [
    tc "4 domains hammering Run.accepts agree with sequential verdicts"
      (fun () ->
        let dna = Alphabet.dna in
        let shapes =
          [
            ([ "x"; "y" ], Combinators.equal_s "x" "y");
            ([ "x"; "y" ], Combinators.occurs_in "x" "y");
            ([ "x"; "y" ], Combinators.edit_distance_le "x" "y" 1);
            ([ "x"; "y" ], Combinators.prefix "x" "y");
          ]
        in
        let fsas =
          List.map (fun (vars, phi) -> Compile.compile dna ~vars phi) shapes
        in
        let g = Prng.create 424242 in
        let inputs =
          List.init 24 (fun _ ->
              [ Prng.string g dna (Prng.int g 6); Prng.string g dna (Prng.int g 8) ])
        in
        let verdicts () =
          List.map (fun fsa -> List.map (Run.accepts fsa) inputs) fsas
        in
        let expected = verdicts () in
        let worker () =
          for _ = 1 to 25 do
            (* Re-request the compilations too: memo hits must return the
               same physically shared automata throughout. *)
            let again =
              List.map (fun (vars, phi) -> Compile.compile dna ~vars phi) shapes
            in
            if not (List.for_all2 ( == ) again fsas) then
              failwith "memo lost physical sharing under concurrency";
            if verdicts () <> expected then
              failwith "concurrent verdicts diverged"
          done
        in
        let domains = List.init 4 (fun _ -> Domain.spawn worker) in
        (* join re-raises any worker failure *)
        List.iter Domain.join domains);
  ]

(* Service admission counts reservations: a slot is taken at [submit]
   and given back when the task returns, so the bound holds however the
   workers are scheduled. *)

(* A gate tasks block on until the test opens it. *)
let gate () =
  let mu = Mutex.create () and cv = Condition.create () and opened = ref false in
  let pass () =
    Mutex.protect mu (fun () ->
        while not !opened do
          Condition.wait cv mu
        done)
  in
  let open_ () =
    Mutex.protect mu (fun () ->
        opened := true;
        Condition.broadcast cv)
  in
  (pass, open_)

let await_load svc n =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Pool.Service.load svc <> n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  check_int "load" n (Pool.Service.load svc)

let service_tests =
  [
    tc "a worker handed a task is taken before it wakes" (fun () ->
        let svc = Pool.Service.create ~workers:1 ~queue:0 () in
        let pass, open_ = gate () in
        let ran = Atomic.make 0 in
        let task () = pass (); Atomic.incr ran in
        (* Back to back: the worker may not have woken for the first. *)
        check_bool "first admitted" true (Pool.Service.submit svc task);
        check_bool "second rejected" false (Pool.Service.submit svc task);
        check_int "one slot held" 1 (Pool.Service.load svc);
        open_ ();
        await_load svc 0;
        check_bool "slot returned" true (Pool.Service.submit svc task);
        Pool.Service.shutdown svc;
        check_int "admitted tasks ran" 2 (Atomic.get ran);
        check_bool "closed after shutdown" false (Pool.Service.submit svc task));
    tc "admits workers + queue tasks, then rejects" (fun () ->
        let svc = Pool.Service.create ~workers:2 ~queue:1 () in
        let pass, open_ = gate () in
        let ran = Atomic.make 0 in
        let task () = pass (); Atomic.incr ran in
        let admitted = List.init 5 (fun _ -> Pool.Service.submit svc task) in
        check_bool "first three in, then out" true
          (admitted = [ true; true; true; false; false ]);
        check_int "three slots held" 3 (Pool.Service.load svc);
        open_ ();
        Pool.Service.shutdown svc;
        check_int "every admitted task ran" 3 (Atomic.get ran);
        check_int "no slot held" 0 (Pool.Service.load svc));
  ]

let suites =
  [
    ("util.pool", pool_tests);
    ("util.pool.stress", stress_tests);
    ("util.pool.service", service_tests);
  ]
