(* The plan/execute split of Eval: prepare ∘ execute ≡ run — including
   the Error cases, which the boundary must trap rather than leak as
   exceptions — plus the two regressions it carries: the limitation
   verdict memo keys on physical identity, and row dedup survives wide
   rows with repeated early columns. *)
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

let pair_db = Workload.pair_db b ~seed:13 ~name:"pair" ~n:5 ~len:2

(* u = v as strings: [u,v]-aligned windows all agree. *)
let eq_uv = Sformula.left [ "u"; "v" ] (Window.Eq ("u", "v"))

let split_run ?store ?pool sigma db ~free phi =
  match Eval.prepare ?store sigma db ~free phi with
  | Error e -> Error e
  | Ok plan -> Eval.execute ?pool plan

let check_parity ?store name sigma db ~free phi =
  let direct = Eval.run ?store sigma db ~free phi in
  let split = split_run ?store sigma db ~free phi in
  if direct <> split then
    Alcotest.failf "%s: run and prepare∘execute disagree" name

let parity_tests =
  [
    tc "filter query: prepare∘execute ≡ run" (fun () ->
        check_parity "filter" b pair_db ~free:[ "u"; "v" ]
          (F.And (F.Rel ("pair", [ "u"; "v" ]), F.Str eq_uv)));
    tc "generator query: prepare∘execute ≡ run" (fun () ->
        (* y is unbound: the plan must carry the Theorem 5.2 certificate
           and generate y from x at execute time.  The paper's x =ₛ y is
           the canonical certified generator. *)
        let db = Database.of_list [ ("r", [ [ "ab" ]; [ "ba" ]; [ "aab" ] ]) ] in
        let phi =
          F.And
            ( F.Rel ("r", [ "x" ]),
              F.Str
                (Sparser.sformula "([x,y]l{x=y})*.[x,y]l{x=y & x=#}") )
        in
        check_parity "generator" b db ~free:[ "x"; "y" ] phi;
        match Eval.run b db ~free:[ "x"; "y" ] phi with
        | Error e -> Alcotest.fail e
        | Ok rows ->
            check_bool "generator produced rows" true (rows <> []));
    tc "negation query: prepare∘execute ≡ run" (fun () ->
        check_parity "negation" b pair_db ~free:[ "u"; "v" ]
          (F.And
             (F.Rel ("pair", [ "u"; "v" ]), F.Not (F.Rel ("pair", [ "v"; "u" ])))));
    tc "existential prefix: prepare∘execute ≡ run" (fun () ->
        check_parity "exists" b pair_db ~free:[ "u" ]
          (F.Exists ("v", F.And (F.Rel ("pair", [ "u"; "v" ]), F.Str eq_uv))));
    tc "indexed store: prepare materialises probe survivors" (fun () ->
        let g = Prng.create 7 in
        let db =
          Database.of_list
            [ ("r", List.init 24 (fun _ -> [ Prng.string_upto g b 6 ])) ]
        in
        let st = Store.create b db in
        let phi =
          F.And
            ( F.Rel ("r", [ "x" ]),
              F.Str
                (Sformula.left [ "x" ]
                   (Window.And (Window.Is_char ("x", 'a'), Window.True))) )
        in
        check_parity ~store:st "indexed" b db ~free:[ "x" ] phi);
    tc "a plan executes many times, identically" (fun () ->
        let phi = F.And (F.Rel ("pair", [ "u"; "v" ]), F.Str eq_uv) in
        match Eval.prepare b pair_db ~free:[ "u"; "v" ] phi with
        | Error e -> Alcotest.fail e
        | Ok plan ->
            let first = Eval.execute plan in
            let again = Eval.execute plan in
            let pooled = Eval.execute ~pool:(Pool.get 4) plan in
            check_bool "re-execute ≡ execute" true (again = first);
            check_bool "pooled execute ≡ execute" true (pooled = first));
    tc "explain ≡ Plan.explain ∘ prepare" (fun () ->
        let phi = F.And (F.Rel ("pair", [ "u"; "v" ]), F.Str eq_uv) in
        let via_eval = Eval.explain b pair_db phi in
        let via_plan =
          match Eval.prepare b pair_db ~free:(F.free_vars phi) phi with
          | Error e -> Error e
          | Ok p -> Ok (Plan.explain p)
        in
        check_bool "explain is a pure projection of the plan" true
          (via_eval = via_plan));
  ]

(* Satellite: the boundary traps engine exceptions.  A relation whose
   tuples are narrower than the atom used to kill the caller with
   [Invalid_argument]; both run and the split must answer [Error]. *)
let error_tests =
  [
    tc "malformed relation: arity mismatch is Error, not an exception"
      (fun () ->
        let db = Database.of_list [ ("r", [ [ "a" ]; [ "b" ] ]) ] in
        let phi = F.Rel ("r", [ "x"; "y" ]) in
        (match Eval.run b db ~free:[ "x"; "y" ] phi with
        | Ok _ -> Alcotest.fail "run accepted a malformed relation"
        | Error m ->
            check_bool "run error names the arity mismatch" true
              (contains m "arity"));
        match split_run b db ~free:[ "x"; "y" ] phi with
        | Ok _ -> Alcotest.fail "execute accepted a malformed relation"
        | Error m ->
            check_bool "execute error names the arity mismatch" true
              (contains m "arity"));
    tc "unknown relation is Error" (fun () ->
        let phi = F.Rel ("nosuch", [ "x" ]) in
        match split_run b pair_db ~free:[ "x" ] phi with
        | Ok _ -> Alcotest.fail "execute accepted an unknown relation"
        | Error m -> check_bool "names the relation" true (contains m "nosuch"));
    tc "free-variable mismatch is Error" (fun () ->
        match Eval.prepare b pair_db ~free:[ "u" ] (F.Rel ("pair", [ "u"; "v" ])) with
        | Ok _ -> Alcotest.fail "prepare accepted a bad free list"
        | Error _ -> ());
  ]

(* Satellite regression: the limitation verdict memo keys on the
   automaton's *physical* identity.  Analyzing the same automaton twice
   is a miss then a hit; a structurally-equal clone is a fresh miss. *)
let clone_fsa (f : Fsa.t) =
  let finals = ref [] in
  Array.iteri (fun q is -> if is then finals := q :: !finals) f.Fsa.finals;
  Fsa.make ~sigma:f.Fsa.sigma ~arity:f.Fsa.arity ~num_states:f.Fsa.num_states
    ~start:f.Fsa.start ~finals:(List.rev !finals)
    ~transitions:(Array.to_list f.Fsa.transitions)

let limitation_memo_tests =
  [
    tc "verdict memo: hit on same automaton, miss on structural clone"
      (fun () ->
        let fsa =
          Compile.compile b ~vars:[ "x"; "y" ]
            (Sformula.left [ "x"; "y" ] (Window.Eq ("x", "y")))
        in
        let clone = clone_fsa fsa in
        check_bool "clone is structurally equal" true (clone = fsa);
        check_bool "clone is physically distinct" false (clone == fsa);
        Limitation.clear_cache ();
        let v1 = Limitation.analyze fsa ~inputs:[ 0 ] ~outputs:[ 1 ] in
        let s1 = Limitation.cache_stats () in
        check_int "first analysis misses" 1 s1.Limitation.misses;
        check_int "first analysis cannot hit" 0 s1.Limitation.hits;
        let v2 = Limitation.analyze fsa ~inputs:[ 0 ] ~outputs:[ 1 ] in
        let s2 = Limitation.cache_stats () in
        check_int "same automaton hits" 1 s2.Limitation.hits;
        check_int "same automaton adds no miss" 1 s2.Limitation.misses;
        let v3 = Limitation.analyze clone ~inputs:[ 0 ] ~outputs:[ 1 ] in
        let s3 = Limitation.cache_stats () in
        check_int "structural clone is a fresh miss" 2 s3.Limitation.misses;
        check_int "structural clone does not hit" 1 s3.Limitation.hits;
        check_int "two entries live" 2 s3.Limitation.entries;
        check_bool "verdicts agree across the memo" true
          (v1 = v2 && (match (v1, v3) with
                      | Ok (Limitation.Limited _), Ok (Limitation.Limited _)
                      | Ok (Limitation.Unlimited _), Ok (Limitation.Unlimited _)
                      | Error _, Error _ -> true
                      | _ -> false)));
  ]

(* Satellite regression: [dedup_rows] on wide rows whose first columns
   repeat.  The polymorphic hash reads only a bounded prefix of a row,
   so before the injective string key this degraded to quadratic
   bucket-chain scans over 200-char columns — minutes, not
   milliseconds, at this size. *)
let dedup_tests =
  [
    tc "length-prefixed key is injective across cell boundaries" (fun () ->
        let rows = [ [| "ab"; "c" |]; [| "a"; "bc" |]; [| "ab"; "c" |] ] in
        check_int "boundary-shifted rows both survive" 2
          (List.length (Eval.dedup_rows rows)));
    slow_tc "wide-row dedup stays near-linear" (fun () ->
        let wide = String.make 200 'a' in
        let mk i =
          Array.init 12 (fun c ->
              if c = 11 then Printf.sprintf "row%06d" i else wide)
        in
        let rows = List.init 4000 mk in
        let t0 = Sys.time () in
        let out = Eval.dedup_rows (rows @ rows) in
        let dt = Sys.time () -. t0 in
        check_int "distinct wide rows all survive" 4000 (List.length out);
        check_bool "first occurrences, in order" true (out = rows);
        if dt > 10.0 then
          Alcotest.failf
            "wide-row dedup took %.1fs — hash is sampling a row prefix again"
            dt);
  ]

(* prepare ∘ execute ≡ run over random string conjuncts, under every
   combination of the fusion and index toggles.  Single bound variable:
   the conjunct runs as a σ_A filter (generator-path randomness is
   deliberately avoided — see test_qcheck.ml on certified bounds). *)
let qcheck_props =
  let g = Prng.create 1729 in
  let rdb =
    Database.of_list [ ("r", List.init 24 (fun _ -> [ Prng.string_upto g b 6 ])) ]
  in
  let st = Store.create b rdb in
  let combos = [ (true, true); (true, false); (false, true); (false, false) ] in
  [
    Test_qcheck.prop ~count:30 "prepare∘execute ≡ run under fuse/index toggles"
      (Test_qcheck.arb_sformula ~allow_right:false [ "x" ])
      (fun s ->
        let phi = F.And (F.Rel ("r", [ "x" ]), F.Str s) in
        let free = [ "x" ] in
        let fuse0 = Product.enabled () and idx0 = Store.enabled () in
        Fun.protect
          ~finally:(fun () ->
            Product.set_enabled fuse0;
            Store.set_enabled idx0)
          (fun () ->
            List.for_all
              (fun (fu, ix) ->
                Product.set_enabled fu;
                Store.set_enabled ix;
                Eval.run ~store:st b rdb ~free phi
                = split_run ~store:st b rdb ~free phi)
              combos));
    (* A pair's product is built on its second request, so the fused
       side plans once before it is compared, and counts its fused
       cases. *)
    Test_qcheck.prop_witnessed ~count:20 ~what:"planned a fused filter"
      "fused two-conjunct plans ≡ run, fuse on/off"
      (QCheck.pair
         (Test_qcheck.arb_sformula [ "u"; "v" ])
         (Test_qcheck.arb_sformula [ "u"; "v" ]))
      (fun fused (s1, s2) ->
        let phi =
          F.And
            (F.Rel ("pair", [ "u"; "v" ]), F.And (F.Str s1, F.Str s2))
        in
        let free = F.free_vars phi in
        let fuse0 = Product.enabled () in
        let is_fused = function
          | Ok steps ->
              List.exists
                (function
                  | Eval.Filter (d, _) -> contains d "σ-fusion" | _ -> false)
                steps
          | Error _ -> false
        in
        Fun.protect
          ~finally:(fun () -> Product.set_enabled fuse0)
          (fun () ->
            List.for_all
              (fun fu ->
                Product.set_enabled fu;
                if fu then ignore (Eval.explain b pair_db phi);
                let agree =
                  Eval.run b pair_db ~free phi = split_run b pair_db ~free phi
                in
                if fu && is_fused (Eval.explain b pair_db phi) then fused ();
                agree)
              [ true; false ]));
  ]

let suites =
  [
    ("plan.parity", parity_tests);
    ("plan.errors", error_tests);
    ("plan.limitation-memo", limitation_memo_tests);
    ("plan.dedup", dedup_tests);
    ("plan.qcheck", qcheck_props);
  ]
