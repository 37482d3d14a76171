(* Conjunct fusion: the merged-frame product constructions (sync window
   product + sequential composition), their acceptance law
     accepts (a × b) t  ⇔  accepts a t|_A ∧ accepts b t|_B,
   the STRDB_FUSE toggle and the state budget, the fused evaluator paths
   (σ-fusion of filters, selection pushdown into certified generators),
   and the rule that a pair's product is built on its second request. *)
open Strdb
open Helpers

let b = Alphabet.binary

let compile vars phi = Compile.compile b ~vars phi

let with_fuse on f =
  let was = Product.enabled () in
  Product.set_enabled on;
  Fun.protect ~finally:(fun () -> Product.set_enabled was) f

(* A pair's first [Product.fuse] request only records it; the second
   builds.  Fused-path tests make the first request here. *)
let warm pa pb = ignore (Product.fuse pa pb)

let with_budget n f =
  let was = Product.state_budget () in
  Product.set_state_budget n;
  Fun.protect ~finally:(fun () -> Product.set_state_budget was) f

(* Project a merged-frame tuple onto a factor frame. *)
let project merged frame tup =
  let index v =
    let rec go i = function
      | [] -> invalid_arg "project"
      | u :: rest -> if u = v then i else go (i + 1) rest
    in
    go 0 merged
  in
  List.map (fun v -> List.nth tup (index v)) frame

let check_law name (a, fa) (b_, fb) (p, merged) ~max_len =
  List.iter
    (fun tup ->
      let want =
        Run.accepts_naive a (project merged fa tup)
        && Run.accepts_naive b_ (project merged fb tup)
      in
      let via_naive = Run.accepts_naive p tup in
      let via_kernel = Run.accepts p tup in
      if via_naive <> want || via_kernel <> want then
        Alcotest.failf "%s: law fails on (%s): want %b, naive %b, kernel %b"
          name
          (String.concat "," tup)
          want via_naive via_kernel)
    (all_tuples b ~arity:(List.length merged) ~max_len)

(* ------------------------------------------------------- constructions *)

let core_tests =
  [
    tc "merged_frame aligns by name" (fun () ->
        check_string_list "overlap" [ "x"; "y"; "z" ]
          (Product.merged_frame [ "x"; "y" ] [ "y"; "z" ]);
        check_string_list "disjoint" [ "x"; "y" ]
          (Product.merged_frame [ "x" ] [ "y" ]);
        check_string_list "same" [ "x"; "y" ]
          (Product.merged_frame [ "x"; "y" ] [ "x"; "y" ]));
    tc "sync product: same frame, one-way factors (exhaustive <= 2)"
      (fun () ->
        let a = compile [ "x"; "y" ] (Combinators.equal_s "x" "y") in
        let p = compile [ "x"; "y" ] (Combinators.prefix "x" "y") in
        match Product.product_sync (a, [ "x"; "y" ]) (p, [ "x"; "y" ]) with
        | None -> Alcotest.fail "sync product refused one-way factors"
        | Some (prod, merged) ->
            check_string_list "frame" [ "x"; "y" ] merged;
            check_bool "unidirectional" true
              (Optimize.shape_of prod = Optimize.Unidirectional);
            check_law "equal_s x prefix" (a, [ "x"; "y" ]) (p, [ "x"; "y" ])
              (prod, merged) ~max_len:2);
    tc "sync product: overlapping frames (exhaustive <= 2)" (fun () ->
        let a = compile [ "x"; "y" ] (Combinators.equal_s "x" "y") in
        let c = compile [ "y"; "z" ] (Combinators.equal_s "y" "z") in
        match Product.product_sync (a, [ "x"; "y" ]) (c, [ "y"; "z" ]) with
        | None -> Alcotest.fail "sync product refused overlapping frames"
        | Some (prod, merged) ->
            check_string_list "frame" [ "x"; "y"; "z" ] merged;
            check_law "equal_s x equal_s" (a, [ "x"; "y" ]) (c, [ "y"; "z" ])
              (prod, merged) ~max_len:2);
    tc "sync product: disjoint frames (exhaustive <= 2)" (fun () ->
        let a = compile [ "x" ] (Combinators.literal "x" "ab") in
        let c = compile [ "y" ] (Combinators.literal "y" "ba") in
        match Product.product_sync (a, [ "x" ]) (c, [ "y" ]) with
        | None -> Alcotest.fail "sync product refused disjoint frames"
        | Some (prod, merged) ->
            check_law "literal x literal" (a, [ "x" ]) (c, [ "y" ])
              (prod, merged) ~max_len:2);
    tc "seq composition handles two-way factors (exhaustive <= 2)"
      (fun () ->
        let m = compile [ "x"; "y" ] (Combinators.manifold "x" "y") in
        let e = compile [ "x"; "y" ] (Combinators.equal_s "x" "y") in
        check_bool "sync refuses a two-way factor" true
          (Product.product_sync (m, [ "x"; "y" ]) (e, [ "x"; "y" ]) = None);
        match Product.product_seq (m, [ "x"; "y" ]) (e, [ "x"; "y" ]) with
        | None -> Alcotest.fail "seq composition refused normal-form factors"
        | Some (prod, merged) ->
            check_law "manifold x equal_s" (m, [ "x"; "y" ]) (e, [ "x"; "y" ])
              (prod, merged) ~max_len:2);
    tc "seq composition: overlapping frames, two-way factor (exhaustive <= 2)"
      (fun () ->
        let m = compile [ "y"; "z" ] (Combinators.reverse_of "y" "z") in
        let e = compile [ "x"; "y" ] (Combinators.prefix "x" "y") in
        match Product.product_seq (e, [ "x"; "y" ]) (m, [ "y"; "z" ]) with
        | None -> Alcotest.fail "seq composition refused"
        | Some (prod, merged) ->
            check_string_list "frame" [ "x"; "y"; "z" ] merged;
            check_law "prefix x reverse_of" (e, [ "x"; "y" ]) (m, [ "y"; "z" ])
              (prod, merged) ~max_len:2);
    tc "budget blowout falls back to the unfused plan" (fun () ->
        with_fuse true @@ fun () ->
        let a = compile [ "x"; "y" ] (Combinators.equal_s "x" "y") in
        let p = compile [ "x"; "y" ] (Combinators.prefix "x" "y") in
        with_budget 1 (fun () ->
            Product.clear_cache ();
            Product.reset_stats ();
            check_bool "sync overflows" true
              (Product.product_sync (a, [ "x"; "y" ]) (p, [ "x"; "y" ]) = None);
            warm (a, [ "x"; "y" ]) (p, [ "x"; "y" ]);
            check_bool "fuse declines on blowout" true
              (Product.fuse (a, [ "x"; "y" ]) (p, [ "x"; "y" ]) = None);
            let s = Product.stats () in
            check_bool "budget fallback counted" true
              (s.Product.budget_fallbacks >= 1);
            (* The sequential composition stays available (and exact) for
               callers who want it despite the blowout. *)
            match Product.product_seq (a, [ "x"; "y" ]) (p, [ "x"; "y" ]) with
            | None -> Alcotest.fail "seq composition refused"
            | Some (prod, merged) ->
                check_law "seq law" (a, [ "x"; "y" ]) (p, [ "x"; "y" ])
                  (prod, merged) ~max_len:2);
        Product.clear_cache ());
    tc "fuse is memoized on factor identity" (fun () ->
        with_fuse true @@ fun () ->
        Product.clear_cache ();
        let a = compile [ "x"; "y" ] (Combinators.equal_s "x" "y") in
        let p = compile [ "x"; "y" ] (Combinators.prefix "x" "y") in
        check_bool "the first request only records the pair" true
          (Product.fuse (a, [ "x"; "y" ]) (p, [ "x"; "y" ]) = None);
        let r1 = Product.fuse (a, [ "x"; "y" ]) (p, [ "x"; "y" ]) in
        let r2 = Product.fuse (a, [ "x"; "y" ]) (p, [ "x"; "y" ]) in
        match (r1, r2) with
        | Some (p1, _), Some (p2, _) ->
            check_bool "same automaton" true (p1 == p2)
        | _ -> Alcotest.fail "fuse refused a fusable pair");
    tc "fuse refuses with fusion disabled and non-normal finals" (fun () ->
        let a = compile [ "x"; "y" ] (Combinators.equal_s "x" "y") in
        with_fuse false (fun () ->
            check_bool "disabled" true
              (Product.fuse (a, [ "x"; "y" ]) (a, [ "x"; "y" ]) = None));
        (* a final state with an outgoing transition breaks the
           reach-final = accept equivalence both constructions rely on *)
        let bad =
          Fsa.make ~sigma:b ~arity:1 ~num_states:2 ~start:0 ~finals:[ 0 ]
            ~transitions:
              [
                Fsa.transition ~src:0 ~read:[ Symbol.Lend ] ~dst:1 ~moves:[ 0 ];
              ]
        in
        check_bool "normal_finals detects it" false (Product.normal_finals bad);
        check_bool "sync refuses" true
          (Product.product_sync (bad, [ "x" ]) (bad, [ "x" ]) = None);
        check_bool "seq refuses" true
          (Product.product_seq (bad, [ "x" ]) (bad, [ "x" ]) = None));
    tc "products keep the normal-finals property (n-ary folding)" (fun () ->
        with_fuse true @@ fun () ->
        let a = compile [ "x"; "y" ] (Combinators.equal_s "x" "y") in
        let p = compile [ "x"; "y" ] (Combinators.prefix "x" "y") in
        let s = compile [ "x"; "y" ] (Combinators.subsequence "x" "y") in
        warm (a, [ "x"; "y" ]) (p, [ "x"; "y" ]);
        match Product.fuse (a, [ "x"; "y" ]) (p, [ "x"; "y" ]) with
        | None -> Alcotest.fail "first fuse refused"
        | Some (ap, f) -> (
            check_bool "normal finals" true (Product.normal_finals ap);
            (* The second factor pair diverges in phase, so the sync
               construction blows the budget; the sequential composition
               folds regardless because products keep normal finals. *)
            match Product.product_seq (ap, f) (s, [ "x"; "y" ]) with
            | None -> Alcotest.fail "second composition refused"
            | Some (aps, merged) ->
                List.iter
                  (fun tup ->
                    let want =
                      Run.accepts_naive a tup && Run.accepts_naive p tup
                      && Run.accepts_naive s tup
                    in
                    check_bool "ternary law" want (Run.accepts aps tup))
                  (all_tuples b ~arity:2 ~max_len:2);
                ignore merged));
  ]

(* ------------------------------------------------------- fused planner *)

let db =
  Database.of_list
    [
      ("p", [ [ "ab"; "ab" ]; [ "a"; "b" ]; [ "ba"; "ba" ]; [ "abb"; "ab" ] ]);
      ("r", [ [ "abab" ]; [ "bb" ]; [ "aab" ] ]);
    ]

let two_filter_query =
  Formula.And
    ( Formula.Rel ("p", [ "u"; "v" ]),
      Formula.And
        ( Formula.Str (Combinators.prefix "u" "v"),
          Formula.Str (Combinators.equal_s "u" "v") ) )

let pushdown_query =
  (* prefix(x,y) is the only certifiable generator (the regex filter on
     x alone is unbounded), so the regex is pushed into the generation
     product and rejected prefixes are never materialized. *)
  Formula.And
    ( Formula.Rel ("r", [ "y" ]),
      Formula.And
        ( Formula.Str (Combinators.prefix "x" "y"),
          Formula.Str (Combinators.regex_match "x" (Regex.parse "(ab)*")) ) )

let filters_of steps =
  List.filter_map (function Eval.Filter (d, a) -> Some (d, a) | _ -> None) steps

let generators_of steps =
  List.filter_map
    (function Eval.Generator (d, b_, a) -> Some (d, b_, a) | _ -> None)
    steps

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Did the plan fuse: a σ-fusion filter or a generator with pushdown? *)
let is_fused steps =
  List.exists (fun (d, _) -> contains ~needle:"σ-fusion" d) (filters_of steps)
  || List.exists (fun (d, _, _) -> contains ~needle:"⋉" d) (generators_of steps)

(* The plan of [q] with fusion on, planned a second time so that the
   first planning's factor pairs are built. *)
let warmed_explain q =
  with_fuse true (fun () ->
      ignore (Eval.explain b db q);
      Eval.explain b db q)

(* [q] run fused, after a warm-up plan, and unfused; fails unless the
   fused run's plan really fused, so agreement is never vacuous. *)
let fused_and_plain ~free q =
  let fused =
    with_fuse true (fun () ->
        ignore (Eval.explain b db q);
        let r = Eval.run b db ~free q in
        match Eval.explain b db q with
        | Ok steps when is_fused steps -> r
        | _ -> Alcotest.fail "the warmed plan did not fuse")
  in
  (fused, with_fuse false (fun () -> Eval.run b db ~free q))

let planner_tests =
  [
    tc "explain shows a fused filter step with provenance and kernel"
      (fun () ->
        match warmed_explain two_filter_query with
        | Error e -> Alcotest.fail e
        | Ok steps -> (
            match filters_of steps with
            | [ (d, a) ] ->
                check_bool "provenance" true (contains ~needle:"σ-fusion" d);
                check_bool "factors listed" true (contains ~needle:"×" d);
                check_bool "shape shown" true
                  (contains ~needle:"unidirectional" a);
                check_bool "kernel shown" true
                  (contains ~needle:"one-way frontier" a)
            | fs ->
                Alcotest.failf "expected one fused filter step, got %d"
                  (List.length fs)));
    tc "explain reproduces the unfused plan with STRDB_FUSE=0" (fun () ->
        with_fuse false (fun () ->
            match Eval.explain b db two_filter_query with
            | Error e -> Alcotest.fail e
            | Ok steps ->
                check_int "two separate filters" 2
                  (List.length (filters_of steps));
                List.iter
                  (fun (d, _) ->
                    check_bool "no fusion marker" false
                      (contains ~needle:"σ-fusion" d))
                  (filters_of steps)));
    tc "explain shows selection pushdown on a certified generator" (fun () ->
        match warmed_explain pushdown_query with
        | Error e -> Alcotest.fail e
        | Ok steps -> (
            match generators_of steps with
            | [ (d, _, a) ] ->
                check_bool "pushdown marker" true (contains ~needle:"⋉" d);
                check_bool "annotated" true (contains ~needle:"states" a);
                check_int "pushed filter leaves the plan" 0
                  (List.length (filters_of steps))
            | gs ->
                Alcotest.failf "expected one generator step, got %d"
                  (List.length gs)));
    tc "fused and unfused runs agree (filters)" (fun () ->
        match fused_and_plain ~free:[ "u"; "v" ] two_filter_query with
        | Ok a, Ok b_ -> check_tuples "rows" b_ a
        | _ -> Alcotest.fail "evaluation failed");
    tc "fused and unfused runs agree (generator pushdown)" (fun () ->
        match fused_and_plain ~free:[ "x"; "y" ] pushdown_query with
        | Ok a, Ok b_ ->
            check_tuples "rows" b_ a;
            check_tuples "expected answers"
              [
                [ ""; "aab" ];
                [ ""; "abab" ];
                [ ""; "bb" ];
                [ "ab"; "abab" ];
                [ "abab"; "abab" ];
              ]
              a
        | _ -> Alcotest.fail "evaluation failed");
  ]

(* ----------------------------------------------- build on second request *)

let built () =
  let s = Product.stats () in
  s.Product.sync_built + s.Product.seq_built

let prepare_filters () =
  match Eval.prepare b db ~free:[ "u"; "v" ] two_filter_query with
  | Error e -> Alcotest.fail e
  | Ok plan -> filters_of (Plan.explain plan)

let deferred_tests =
  [
    tc "one prepare of a fresh formula builds no product" (fun () ->
        with_fuse true @@ fun () ->
        Product.clear_cache ();
        let s0 = Product.stats () in
        let filters = prepare_filters () in
        let s1 = Product.stats () in
        check_int "no construction attempted" s0.Product.attempts
          s1.Product.attempts;
        check_int "the request is deferred" (s0.Product.deferred + 1)
          s1.Product.deferred;
        check_int "two separate filters" 2 (List.length filters));
    tc "a second prepare explains one σ-fusion step" (fun () ->
        with_fuse true @@ fun () ->
        Product.clear_cache ();
        ignore (prepare_filters ());
        match prepare_filters () with
        | [ (d, _) ] ->
            check_bool "σ-fusion step" true (contains ~needle:"σ-fusion" d)
        | fs ->
            Alcotest.failf "expected one fused filter step, got %d"
              (List.length fs));
    tc "clear_cache forgets a recorded request" (fun () ->
        with_fuse true @@ fun () ->
        let a = compile [ "x"; "y" ] (Combinators.equal_s "x" "y") in
        let p = compile [ "x"; "y" ] (Combinators.prefix "x" "y") in
        let pa = (a, [ "x"; "y" ]) and pp = (p, [ "x"; "y" ]) in
        Product.clear_cache ();
        warm pa pp;
        Product.clear_cache ();
        check_bool "first request again after clear" true
          (Product.fuse pa pp = None);
        check_bool "built on the next" true (Product.fuse pa pp <> None));
    tc "four domains making the second request build one product"
      (fun () ->
        let free = [ "u"; "v" ] in
        let plain =
          with_fuse false (fun () ->
              Eval.run ~domains:1 b db ~free two_filter_query)
        in
        with_fuse true @@ fun () ->
        Product.clear_cache ();
        ignore (prepare_filters ());
        let b0 = built () in
        let ready = Atomic.make 0 in
        let second_request () =
          Atomic.incr ready;
          while Atomic.get ready < 4 do
            Domain.cpu_relax ()
          done;
          Eval.run ~domains:1 b db ~free two_filter_query
        in
        let answers =
          List.map Domain.join (List.init 4 (fun _ -> Domain.spawn second_request))
        in
        check_int "exactly one product built" (b0 + 1) (built ());
        List.iter
          (fun r -> check_bool "answer matches the unfused run" true (r = plain))
          answers;
        match prepare_filters () with
        | [ (d, _) ] ->
            check_bool "later plans use it" true (contains ~needle:"σ-fusion" d)
        | _ -> Alcotest.fail "the built product is not reused");
  ]

(* ------------------------------------------------------------- qcheck *)

let qcheck_tests =
  let prop = Test_qcheck.prop in
  let prop_witnessed = Test_qcheck.prop_witnessed in
  let arb_sformula = Test_qcheck.arb_sformula in
  let arb_string = Test_qcheck.arb_string in
  let triple = QCheck.triple arb_string arb_string arb_string in
  [
    prop ~count:60 "sync product law on one-way factors (overlapping frames)"
      (QCheck.pair
         (QCheck.pair
            (arb_sformula ~allow_right:false [ "x"; "y" ])
            (arb_sformula ~allow_right:false [ "y"; "z" ]))
         triple)
      (fun ((pa, pb), (u, v, w)) ->
        let a = compile [ "x"; "y" ] pa and b_ = compile [ "y"; "z" ] pb in
        match Product.product_sync (a, [ "x"; "y" ]) (b_, [ "y"; "z" ]) with
        | None -> true (* budget fallback: exercised elsewhere *)
        | Some (p, _) ->
            Run.accepts p [ u; v; w ]
            = (Run.accepts_naive a [ u; v ] && Run.accepts_naive b_ [ v; w ]));
    prop ~count:60 "seq composition law on arbitrary factors (shared frame)"
      (QCheck.pair
         (QCheck.pair (arb_sformula [ "x"; "y" ]) (arb_sformula [ "x"; "y" ]))
         Test_qcheck.arb_string_pair)
      (fun ((pa, pb), (u, v)) ->
        let a = compile [ "x"; "y" ] pa and b_ = compile [ "x"; "y" ] pb in
        match Product.product_seq (a, [ "x"; "y" ]) (b_, [ "x"; "y" ]) with
        | None -> false (* normal-form factors must compose *)
        | Some (p, _) ->
            Run.accepts p [ u; v ]
            = (Run.accepts_naive a [ u; v ] && Run.accepts_naive b_ [ u; v ]));
    prop_witnessed ~count:40 ~what:"was fused" "fuse law on disjoint frames"
      (QCheck.pair
         (QCheck.pair
            (arb_sformula ~allow_right:false [ "x" ])
            (arb_sformula [ "y" ]))
         Test_qcheck.arb_string_pair)
      (fun fused ((pa, pb), (u, v)) ->
        let a = compile [ "x" ] pa and b_ = compile [ "y" ] pb in
        Product.clear_cache ();
        match
          with_fuse true (fun () ->
              warm (a, [ "x" ]) (b_, [ "y" ]);
              Product.fuse (a, [ "x" ]) (b_, [ "y" ]))
        with
        | None -> true
        | Some (p, merged) ->
            fused ();
            merged = [ "x"; "y" ]
            && Run.accepts p [ u; v ]
               = (Run.accepts_naive a [ u ] && Run.accepts_naive b_ [ v ]));
    prop_witnessed ~count:30 ~what:"planned a fused filter"
      "pipeline: STRDB_FUSE=1 ≡ STRDB_FUSE=0 on random conjuncts"
      (QCheck.pair
         (QCheck.pair (arb_sformula [ "x"; "y" ]) (arb_sformula [ "x"; "y" ]))
         (QCheck.small_list Test_qcheck.arb_string_pair))
      (fun fused_case ((p1, p2), tuples) ->
        let db =
          Database.of_list [ ("r", List.map (fun (u, v) -> [ u; v ]) tuples) ]
        in
        let phi =
          Formula.And
            ( Formula.Rel ("r", [ "x"; "y" ]),
              Formula.And (Formula.Str p1, Formula.Str p2) )
        in
        let fused =
          with_fuse true (fun () ->
              ignore (Eval.explain b db phi);
              let r = Eval.run b db ~free:[ "x"; "y" ] phi in
              (match Eval.explain b db phi with
              | Ok steps when is_fused steps -> fused_case ()
              | _ -> ());
              r)
        in
        let plain =
          with_fuse false (fun () -> Eval.run b db ~free:[ "x"; "y" ] phi)
        in
        fused = plain);
  ]

let suites =
  [
    ("product.core", core_tests);
    ("product.planner", planner_tests);
    ("product.deferred", deferred_tests);
    ("qcheck.product", qcheck_tests);
  ]
