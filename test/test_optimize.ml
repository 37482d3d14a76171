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
        check_string "two-way kernel" "two-way packed" (Runtime.kernel_name mf));
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

(* ------------------------------------------------ hand-built automata *)

let sym = function
  | '<' -> Symbol.Lend
  | '>' -> Symbol.Rend
  | c -> Symbol.Chr c

(* One tape over {a, b}; [(src, read, dst, move)] with ⊢ written '<' and
   ⊣ written '>'. *)
let one_tape ~num_states ~finals trs =
  Fsa.make ~sigma:b ~arity:1 ~num_states ~start:0 ~finals
    ~transitions:
      (List.map
         (fun (src, r, dst, m) ->
           Fsa.transition ~src ~read:[ sym r ] ~dst ~moves:[ m ])
         trs)

let words = Strutil.all_strings_upto b 3

let agrees_on_words name want got =
  List.iter
    (fun w -> check_bool (Printf.sprintf "%s on %S" name w) (want w) (got w))
    words

let hand_built_tests =
  [
    tc "trim keeps a final state's exit into a dead state" (fun () ->
        (* State 1 is final but does not halt on ⊣: its move into the
           dead state 2 rejects "".  Dropping that move would accept it. *)
        let a =
          one_tape ~num_states:3 ~finals:[ 1 ] [ (0, '<', 1, 1); (1, '>', 2, -1) ]
        in
        let want w = Run.accepts_naive a [ w ] in
        check_bool "\"\" rejected" false (want "");
        check_bool "\"a\" accepted" true (want "a");
        let t = Fsa.trim a in
        check_bool "trim adds no state" true (t.Fsa.num_states <= a.Fsa.num_states);
        agrees_on_words "Fsa.trim" want (fun w -> Run.accepts_naive t [ w ]);
        let o = Optimize.run a in
        agrees_on_words "Optimize.run" want (fun w -> Run.accepts_naive o [ w ]);
        agrees_on_words "Run.accepts" want (fun w -> Run.accepts a [ w ]);
        let phi = Decompile.decompile a ~vars:[ "x" ] in
        agrees_on_words "decompile round trip" want (fun w ->
            Naive.holds phi [ ("x", w) ]));
    tc "backward merging compares moves" (fun () ->
        (* States 1 and 2 are entered on the same read with different
           moves; merging them would accept "a". *)
        let a =
          one_tape ~num_states:4 ~finals:[ 3 ]
            [ (0, '<', 1, 1); (0, '<', 2, 0); (1, 'b', 3, 1); (2, 'a', 3, 1) ]
        in
        let want w = Run.accepts_naive a [ w ] in
        check_bool "\"a\" rejected" false (want "a");
        let o = Optimize.run a in
        agrees_on_words "Optimize.run" want (fun w -> Run.accepts_naive o [ w ]);
        agrees_on_words "runtime kernel" want (fun w -> Run.accepts o [ w ]));
    tc "window guesses merge: compiled sizes after the pass" (fun () ->
        let dna = Alphabet.of_string "acgt" in
        List.iter
          (fun (name, phi, states) ->
            let a = Compile.compile dna ~vars:(Sformula.vars phi) phi in
            let o = Optimize.run a in
            check_int name states o.Fsa.num_states)
          [
            ("equal_s", Combinators.equal_s "u" "v", 3);
            ("occurs_in", Combinators.occurs_in "u" "v", 10);
            ("concat3", Combinators.concat3 "x" "u" "v", 9);
          ]);
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

(* Small random k-FSAs for the merging passes: arity 1–2, 2–6 states,
   the binary alphabet, moves that respect the endmarkers.  Random
   transitions alone rarely make two states bisimilar, so the generator
   plants twins: a state's incoming transitions are replaced by copies
   of another state's, sometimes with one read or move changed.  Finals
   are random, so the start state or a final state is a twin at times. *)
let gen_fsa =
  let open QCheck.Gen in
  (* Stationary moves are rare: stay elimination rewrites most of them,
     and with them the incoming transitions a twin copies. *)
  let moves_for = function
    | Symbol.Lend -> frequencyl [ (1, 0); (4, 1) ]
    | Symbol.Rend -> frequencyl [ (4, -1); (1, 0) ]
    | Symbol.Chr _ -> frequencyl [ (2, -1); (1, 0); (3, 1) ]
  in
  let symbols = Symbol.[ Lend; Rend; Chr 'a'; Chr 'b' ] in
  let symbol = oneofl symbols in
  int_range 1 2 >>= fun arity ->
  int_range 2 6 >>= fun n ->
  let state = int_bound (n - 1) in
  let vec = list_repeat arity symbol in
  let transition =
    state >>= fun src ->
    state >>= fun dst ->
    vec >>= fun read ->
    flatten_l (List.map moves_for read) >>= fun moves ->
    return { Fsa.src; dst; read = Array.of_list read; moves = Array.of_list moves }
  in
  (* One tape of a copied transition reads or moves differently. *)
  let perturb (tr : Fsa.transition) =
    int_bound (arity - 1) >>= fun i ->
    let r = tr.Fsa.read.(i) and m = tr.Fsa.moves.(i) in
    let valid s m' =
      not ((s = Symbol.Lend && m' < 0) || (s = Symbol.Rend && m' > 0))
    in
    let reads = List.filter (fun s -> s <> r && valid s m) symbols in
    let moves = List.filter (fun m' -> m' <> m && valid r m') [ -1; 0; 1 ] in
    oneofl
      (List.map (fun s -> (s, m)) reads @ List.map (fun m' -> (r, m')) moves)
    >|= fun (s, m') ->
    let read = Array.copy tr.Fsa.read and moves = Array.copy tr.Fsa.moves in
    read.(i) <- s;
    moves.(i) <- m';
    { tr with Fsa.read; moves }
  in
  (* The twin's own incoming transitions give way to copies of the
     model's; half the time one copy is perturbed. *)
  let plant trs =
    state >>= fun model ->
    state >>= fun twin ->
    let copies =
      List.filter_map
        (fun (tr : Fsa.transition) ->
          if tr.Fsa.dst = model then Some { tr with Fsa.dst = twin } else None)
        trs
    in
    (if copies = [] then return copies
     else
       bool >>= fun alter ->
       if not alter then return copies
       else
         int_bound (List.length copies - 1) >>= fun j ->
         flatten_l
           (List.mapi (fun i c -> if i = j then perturb c else return c) copies))
    >|= fun copies ->
    if model = twin then trs
    else copies @ List.filter (fun (tr : Fsa.transition) -> tr.Fsa.dst <> twin) trs
  in
  (* The start reads ⊢ on every tape, so it only leaves on all-⊢ reads. *)
  let opening =
    transition >>= fun tr ->
    let read = Array.make arity Symbol.Lend in
    flatten_l (List.map moves_for (Array.to_list read)) >|= fun moves ->
    { tr with Fsa.src = 0; read; moves = Array.of_list moves }
  in
  int_range 1 2 >>= fun k ->
  list_repeat k opening >>= fun opens ->
  int_range n (3 * n) >>= fun m ->
  list_repeat m transition >>= fun trs ->
  let trs = opens @ trs in
  int_range 1 3 >>= fun twins ->
  let rec plant_n k trs =
    if k = 0 then return trs else plant trs >>= plant_n (k - 1)
  in
  plant_n twins trs >>= fun transitions ->
  list_repeat n bool >|= fun fin ->
  let finals = List.concat (List.mapi (fun q f -> if f then [ q ] else []) fin) in
  Fsa.make ~sigma:b ~arity ~num_states:n ~start:0 ~finals ~transitions

let cost (a : Fsa.t) = (a.Fsa.num_states, Fsa.size a)

let arb_fsa = QCheck.make ~print:(Strdb_util.Pretty.to_string Fsa.pp) gen_fsa

let random_fsa_tests =
  [
    Test_qcheck.prop ~count:2000
      "Optimize.run ≡ original on random automata, and stable" arb_fsa
      (fun a ->
        let o = Optimize.run a in
        List.for_all
          (fun tup ->
            let want = Run.accepts_naive a tup in
            Run.accepts_naive o tup = want && Run.accepts o tup = want)
          (all_tuples b ~arity:a.Fsa.arity ~max_len:2)
        && cost (Optimize.run o) = cost o);
  ]

let suites =
  [
    ("optimize.shape", shape_tests);
    ("optimize.rewrites", rewrite_tests);
    ("optimize.hand-built", hand_built_tests);
    ("qcheck.optimize", qcheck_tests);
    ("qcheck.random-fsa", random_fsa_tests);
  ]
