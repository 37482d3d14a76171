(* The Optimize pass: Section 5 shape analysis, the rewrite pipeline
   (trim / stay-elimination / bisimulation merging) and its headline
   contract — optimized ≡ original under halting acceptance — plus the
   kernel dispatch built on the classification. *)
open Strdb
open Helpers

let b = Alphabet.binary

let compile2 phi = Compile.compile b ~vars:[ "x"; "y" ] phi

(* ------------------------------------------------------------- shapes *)

let shape_tests =
  [
    tc "shape agrees with the bidirectional-tape count" (fun () ->
        List.iter
          (fun (vars, phi) ->
            let a = Compile.compile b ~vars phi in
            let want =
              match List.length (Fsa.bidirectional_tapes a) with
              | 0 -> Optimize.Unidirectional
              | 1 -> Optimize.Right_restricted
              | _ -> Optimize.General
            in
            check_bool (Sformula.to_string phi) true (Optimize.shape_of a = want))
          [
            ([ "x"; "y" ], Combinators.equal_s "x" "y");
            ([ "x"; "y" ], Combinators.prefix "x" "y");
            ([ "x"; "y" ], Combinators.manifold "x" "y");
            ([ "x"; "y"; "z" ], Combinators.concat3 "x" "y" "z");
            ([ "x"; "y"; "z" ], Combinators.shuffle3 "x" "y" "z");
          ]);
    tc "equal_s is unidirectional, manifold is not" (fun () ->
        let eq = compile2 (Combinators.equal_s "x" "y") in
        check_bool "equal_s shape" true
          (Optimize.shape_of eq = Optimize.Unidirectional);
        check_bool "equal_s tapes" true
          (Array.for_all (( = ) Optimize.Oneway) (Optimize.tape_dirs eq));
        let mf = compile2 (Combinators.manifold "x" "y") in
        check_bool "manifold shape" true
          (Optimize.shape_of mf <> Optimize.Unidirectional));
    tc "shape ranks order the taxonomy" (fun () ->
        check_int "uni" 0 (Optimize.shape_rank Optimize.Unidirectional);
        check_int "rr" 1 (Optimize.shape_rank Optimize.Right_restricted);
        check_int "gen" 2 (Optimize.shape_rank Optimize.General));
    tc "kernel dispatch follows the shape" (fun () ->
        let eq = Optimize.run (compile2 (Combinators.equal_s "x" "y")) in
        check_string "one-way kernel" "one-way frontier" (Runtime.kernel_name eq);
        let lit =
          Optimize.run (Compile.compile b ~vars:[ "x" ] (Combinators.literal "x" "ab"))
        in
        check_string "one-tape one-way kernel" "one-way DFA, 4 states"
          (Runtime.kernel_name lit);
        let mf = Optimize.run (compile2 (Combinators.manifold "x" "y")) in
        check_string "two-way kernel" "two-way packed" (Runtime.kernel_name mf);
        Runtime.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Runtime.set_enabled true)
          (fun () ->
            check_string "disabled runtime" "naive search" (Runtime.kernel_name eq)));
  ]

(* ----------------------------------------------------------- rewrites *)

let combinator_battery =
  [
    ([ "x"; "y" ], Combinators.equal_s "x" "y");
    ([ "x"; "y" ], Combinators.prefix "x" "y");
    ([ "x"; "y" ], Combinators.proper_prefix "x" "y");
    ([ "x"; "y" ], Combinators.manifold "x" "y");
    ([ "x"; "y" ], Combinators.occurs_in "x" "y");
    ([ "x"; "y"; "z" ], Combinators.concat3 "x" "y" "z");
    ([ "x"; "y"; "z" ], Combinators.shuffle3 "x" "y" "z");
  ]

let rewrite_tests =
  [
    tc "run never grows the automaton" (fun () ->
        List.iter
          (fun (vars, phi) ->
            let a = Compile.compile b ~vars phi in
            let o = Optimize.run a in
            check_bool "states" true (o.Fsa.num_states <= a.Fsa.num_states);
            check_bool "transitions" true (Fsa.size o <= Fsa.size a))
          combinator_battery);
    tc "run preserves acceptance on combinators (exhaustive ≤ 2)" (fun () ->
        List.iter
          (fun (vars, phi) ->
            let a = Compile.compile b ~vars phi in
            let o = Optimize.run a in
            List.iter
              (fun tup ->
                let want = Run.accepts_naive a tup in
                check_bool
                  (Sformula.to_string phi ^ " on " ^ String.concat "," tup)
                  want
                  (Run.accepts_naive o tup);
                (* and through the dispatched runtime kernels *)
                check_bool "runtime kernel agrees" want (Run.accepts o tup))
              (all_tuples b ~arity:(List.length vars) ~max_len:2))
          combinator_battery);
    tc "run preserves the enumerator on combinators" (fun () ->
        List.iter
          (fun (vars, phi) ->
            let a = Compile.compile b ~vars phi in
            check_bool (Sformula.to_string phi) true
              (Generate.accepted_naive a ~max_len:2
              = Generate.accepted_naive (Optimize.run a) ~max_len:2))
          [
            ([ "x"; "y" ], Combinators.prefix "x" "y");
            ([ "x"; "y"; "z" ], Combinators.concat3 "x" "y" "z");
          ]);
    tc "specialized automata shrink and stay equivalent" (fun () ->
        let occ = compile2 (Combinators.occurs_in "x" "y") in
        let spec = Specialize.specialize occ [ "abab" ] in
        let o = Optimize.run spec in
        check_bool "no growth" true (Fsa.size o <= Fsa.size spec);
        List.iter
          (fun w ->
            check_bool w (Run.accepts_naive spec [ w ]) (Run.accepts_naive o [ w ]))
          (Strutil.all_strings_upto b 3));
    tc "optimized is cached and identity-preserving when it wins nothing"
      (fun () ->
        Optimize.clear_cache ();
        let a = compile2 (Combinators.equal_s "x" "y") in
        let o1 = Optimize.optimized a in
        let o2 = Optimize.optimized a in
        check_bool "memoized" true (o1 == o2);
        (* an already-optimal automaton must come back physically intact *)
        let o3 = Optimize.optimized o1 in
        check_bool "fixpoint keeps identity" true (o3 == o1));
  ]

(* ------------------------------------------------------------- qcheck *)

(* The headline equivalence property, random compiled string formulae:
   [Optimize.run] preserves acceptance through both the naive reference
   and the shape-dispatched runtime kernels, with and without Lemma 3.1
   specialisation. *)
let qcheck_tests =
  let prop = Test_qcheck.prop in
  let arb_sformula = Test_qcheck.arb_sformula in
  let arb_string_pair = Test_qcheck.arb_string_pair in
  [
    prop ~count:120 "Optimize.run preserves acceptance (both kernels)"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let a = compile2 phi in
        let o = Optimize.run a in
        let want = Run.accepts_naive a [ u; v ] in
        Run.accepts_naive o [ u; v ] = want && Run.accepts o [ u; v ] = want);
    prop ~count:80 "Optimize.run preserves acceptance after specialisation"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let spec = Specialize.specialize (compile2 phi) [ u ] in
        let o = Optimize.run spec in
        let want = Run.accepts_naive spec [ v ] in
        Run.accepts_naive o [ v ] = want && Run.accepts o [ v ] = want);
    prop ~count:60 "enumerator agrees through the optimize pass"
      (arb_sformula [ "x"; "y" ])
      (fun phi ->
        let a = compile2 phi in
        Generate.accepted a ~max_len:2 = Generate.accepted_naive a ~max_len:2);
  ]

let suites =
  [
    ("optimize.shape", shape_tests);
    ("optimize.rewrites", rewrite_tests);
    ("qcheck.optimize", qcheck_tests);
  ]
