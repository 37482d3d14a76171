open Strdb
open Helpers

let b = Alphabet.binary

(* A tiny hand-built 1-FSA: accepts strings with an even number of a's
   (ignores b's), head one-way. *)
let even_a_fsa () =
  Fsa.make ~sigma:b ~arity:1 ~num_states:3 ~start:0
    ~finals:[ 2 ]
    ~transitions:
      [
        Fsa.transition ~src:0 ~read:[ Symbol.Lend ] ~dst:1 ~moves:[ 1 ];
        (* state 1 = even so far *)
        Fsa.transition ~src:1 ~read:[ Symbol.Chr 'b' ] ~dst:1 ~moves:[ 1 ];
        Fsa.transition ~src:1 ~read:[ Symbol.Chr 'a' ] ~dst:0 ~moves:[ 1 ];
        (* state 0 doubles as odd-count *)
        Fsa.transition ~src:0 ~read:[ Symbol.Chr 'b' ] ~dst:0 ~moves:[ 1 ];
        Fsa.transition ~src:0 ~read:[ Symbol.Chr 'a' ] ~dst:1 ~moves:[ 1 ];
        Fsa.transition ~src:1 ~read:[ Symbol.Rend ] ~dst:2 ~moves:[ 0 ];
      ]

let construction_tests =
  [
    tc "well-formed FSA builds" (fun () -> ignore (even_a_fsa ()));
    tc "endmarker restriction enforced" (fun () ->
        check_bool "left off ⊢" true
          (try
             ignore
               (Fsa.make ~sigma:b ~arity:1 ~num_states:1 ~start:0 ~finals:[]
                  ~transitions:
                    [ Fsa.transition ~src:0 ~read:[ Symbol.Lend ] ~dst:0 ~moves:[ -1 ] ]);
             false
           with Fsa.Ill_formed _ -> true);
        check_bool "right off ⊣" true
          (try
             ignore
               (Fsa.make ~sigma:b ~arity:1 ~num_states:1 ~start:0 ~finals:[]
                  ~transitions:
                    [ Fsa.transition ~src:0 ~read:[ Symbol.Rend ] ~dst:0 ~moves:[ 1 ] ]);
             false
           with Fsa.Ill_formed _ -> true));
    tc "arity mismatch rejected" (fun () ->
        check_bool "raises" true
          (try
             ignore
               (Fsa.make ~sigma:b ~arity:2 ~num_states:1 ~start:0 ~finals:[]
                  ~transitions:
                    [ Fsa.transition ~src:0 ~read:[ Symbol.Lend ] ~dst:0 ~moves:[ 0 ] ]);
             false
           with Fsa.Ill_formed _ -> true));
    tc "foreign character rejected" (fun () ->
        check_bool "raises" true
          (try
             ignore
               (Fsa.make ~sigma:b ~arity:1 ~num_states:1 ~start:0 ~finals:[]
                  ~transitions:
                    [ Fsa.transition ~src:0 ~read:[ Symbol.Chr 'z' ] ~dst:0 ~moves:[ 0 ] ]);
             false
           with Fsa.Ill_formed _ -> true));
    tc "bad state rejected" (fun () ->
        check_bool "raises" true
          (try
             ignore
               (Fsa.make ~sigma:b ~arity:0 ~num_states:1 ~start:5 ~finals:[]
                  ~transitions:[]);
             false
           with Fsa.Ill_formed _ -> true));
    tc "bidirectionality detection" (fun () ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] (Combinators.manifold "x" "y") in
        check_bool "x unidirectional" false (Fsa.tape_bidirectional fsa 0);
        check_bool "y bidirectional" true (Fsa.tape_bidirectional fsa 1);
        check_bool "right-restricted" true (Fsa.is_right_restricted fsa));
    tc "trim keeps the language" (fun () ->
        let fsa = even_a_fsa () in
        (* add junk states *)
        let padded =
          Fsa.make ~sigma:b ~arity:1 ~num_states:6 ~start:0 ~finals:[ 2; 5 ]
            ~transitions:
              (Array.to_list fsa.Fsa.transitions
              @ [ Fsa.transition ~src:4 ~read:[ Symbol.Chr 'a' ] ~dst:5 ~moves:[ 1 ] ])
        in
        let trimmed = Fsa.trim padded in
        check_bool "smaller" true (trimmed.Fsa.num_states <= 4);
        List.iter
          (fun w ->
            check_bool w (Run.accepts padded [ w ]) (Run.accepts trimmed [ w ]))
          (Strutil.all_strings_upto b 4));
    tc "disregard pins a tape" (fun () ->
        (* After disregarding tape 1 its window tests become vacuous (the
           head sits on ⊢ forever), so acceptance no longer depends on the
           tape's contents at all. *)
        let phi = Combinators.equal_s "x" "y" in
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let d = Fsa.disregard fsa 1 in
        List.iter
          (fun x ->
            let on_empty = Run.accepts d [ x; "" ] in
            List.iter
              (fun y ->
                check_bool
                  (Printf.sprintf "independent of tape 1: (%s,%s)" x y)
                  on_empty
                  (Run.accepts d [ x; y ]))
              [ "a"; "ba"; "bb" ])
          [ ""; "a"; "ab" ]);
  ]

let run_tests =
  [
    tc "even-a acceptance" (fun () ->
        let fsa = even_a_fsa () in
        List.iter
          (fun w ->
            let expect = Strutil.count_char 'a' w mod 2 = 0 in
            check_bool w expect (Run.accepts fsa [ w ]))
          (Strutil.all_strings_upto b 5));
    tc "dfs agrees with bfs" (fun () ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] (Combinators.manifold "x" "y") in
        List.iter
          (fun tup ->
            check_bool
              (String.concat "," tup)
              (Run.accepts fsa tup) (Run.accepts_dfs fsa tup))
          (all_tuples b ~arity:2 ~max_len:2));
    tc "accepting_trace is a real computation" (fun () ->
        let fsa = even_a_fsa () in
        match Run.accepting_trace fsa [ "abab" ] with
        | None -> Alcotest.fail "expected acceptance"
        | Some trace ->
            check_bool "starts initial" true
              (List.hd trace = Run.initial fsa);
            (* consecutive configurations are successors *)
            let rec walk = function
              | c1 :: (c2 :: _ as rest) ->
                  check_bool "successor" true
                    (List.mem c2 (Run.successors fsa [| "abab" |] c1));
                  walk rest
              | _ -> ()
            in
            walk trace;
            let last = List.nth trace (List.length trace - 1) in
            check_bool "halts final" true
              (Fsa.is_final fsa last.Run.state
              && Run.successors fsa [| "abab" |] last = []));
    tc "no trace for rejected input" (fun () ->
        check_bool "none" true (Run.accepting_trace (even_a_fsa ()) [ "a" ] = None));
    tc "arity checking" (fun () ->
        check_bool "raises" true
          (try
             ignore (Run.accepts (even_a_fsa ()) [ "a"; "b" ]);
             false
           with Invalid_argument _ -> true));
    tc "reachable_configs bounded by |Q|·(n+2)" (fun () ->
        let fsa = even_a_fsa () in
        let w = "abba" in
        let configs = Run.reachable_configs fsa [ w ] in
        check_bool "bound" true
          (List.length configs <= fsa.Fsa.num_states * (String.length w + 2)));
  ]

let specialize_tests =
  [
    tc "Lemma 3.1: specialised language is the section" (fun () ->
        let phi = Combinators.concat3 "x" "y" "z" in
        let fsa = Compile.compile b ~vars:[ "y"; "z"; "x" ] phi in
        forall_seeded ~iters:25 (fun g _ ->
            let y = Prng.string_upto g b 3 and z = Prng.string_upto g b 3 in
            let spec = Specialize.specialize fsa [ y; z ] in
            check_int "arity" 1 spec.Fsa.arity;
            List.iter
              (fun x ->
                check_bool
                  (Printf.sprintf "(%s,%s,%s)" y z x)
                  (Run.accepts fsa [ y; z; x ])
                  (Run.accepts spec [ x ]))
              (Strutil.all_strings_upto b 4)));
    tc "Lemma 3.1 size bound" (fun () ->
        let phi = Combinators.equal_s "x" "y" in
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let u = "abab" in
        let spec = Specialize.specialize fsa [ u ] in
        check_bool "size bound |A|·(|u|+2)" true
          (Fsa.size spec <= Fsa.size fsa * (String.length u + 2)));
    tc "acceptance graph decides membership (Theorem 3.3)" (fun () ->
        let phi = Combinators.occurs_in "x" "y" in
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        List.iter
          (fun tup ->
            let g = Specialize.acceptance_graph fsa tup in
            check_int "0-ary" 0 g.Fsa.arity;
            check_bool
              (String.concat "," tup)
              (Run.accepts fsa tup) (Run.accepts g []))
          (all_tuples b ~arity:2 ~max_len:2));
    tc "too many strings rejected" (fun () ->
        check_bool "raises" true
          (try
             ignore (Specialize.specialize (even_a_fsa ()) [ "a"; "b" ]);
             false
           with Invalid_argument _ -> true));
  ]

(* A 2-FSA with two threads: one reads any x, then y = "a"; the other
   reads any y, then x = "b".  Each starts blocked on its own tape. *)
let two_threads () =
  let tr src read dst moves = Fsa.transition ~src ~read ~dst ~moves in
  let c x = Symbol.Chr x and l = Symbol.Lend and r = Symbol.Rend in
  Fsa.make ~sigma:b ~arity:2 ~num_states:7 ~start:0 ~finals:[ 6 ]
    ~transitions:
      ([ tr 0 [ l; l ] 1 [ 1; 0 ]; tr 0 [ l; l ] 3 [ 0; 1 ] ]
      @ List.map (fun x -> tr 1 [ c x; l ] 1 [ 1; 0 ]) [ 'a'; 'b' ]
      @ [ tr 1 [ r; l ] 2 [ 0; 1 ]; tr 2 [ r; c 'a' ] 5 [ 0; 1 ] ]
      @ List.map (fun x -> tr 3 [ l; c x ] 3 [ 0; 1 ]) [ 'a'; 'b' ]
      @ [ tr 3 [ l; r ] 4 [ 1; 0 ]; tr 4 [ c 'b'; r ] 5 [ 1; 0 ]; tr 5 [ r; r ] 6 [ 0; 0 ] ])

let generate_tests =
  [
    tc "generator enumerates the bounded language" (fun () ->
        let phi = Combinators.equal_s "x" "y" in
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let got = Generate.accepted fsa ~max_len:2 in
        let want =
          List.filter (fun t -> Run.accepts fsa t) (all_tuples b ~arity:2 ~max_len:2)
          |> List.sort compare
        in
        check_tuples "equal language" want got);
    tc "generator vs brute force on random formulae" (fun () ->
        forall_seeded ~iters:40 (fun g seed ->
            let vars = [ "x"; "y" ] in
            let phi = random_sformula ~allow_right:true g b vars 2 in
            let fsa = Compile.compile b ~vars phi in
            let got = Generate.accepted fsa ~max_len:2 in
            let want =
              List.filter (fun t -> Run.accepts fsa t) (all_tuples b ~arity:2 ~max_len:2)
              |> List.sort compare
            in
            if got <> want then
              Alcotest.failf "seed %d: generator disagrees for %s" seed
                (Sformula.to_string phi)));
    tc "outputs = specialised generation" (fun () ->
        let phi = Combinators.concat3 "x" "y" "z" in
        let fsa = Compile.compile b ~vars:[ "y"; "z"; "x" ] phi in
        check_tuples "concat output" [ [ "abba" ] ]
          (Generate.outputs fsa ~inputs:[ "ab"; "ba" ] ~max_len:5);
        check_tuples "empty inputs" [ [ "" ] ]
          (Generate.outputs fsa ~inputs:[ ""; "" ] ~max_len:5));
    tc "unread tape tails are enumerated" (fun () ->
        (* a formula that only inspects the first character *)
        let phi = Sformula.left [ "x" ] (Window.Is_char ("x", 'a')) in
        let fsa = Compile.compile b ~vars:[ "x" ] phi in
        let got = Generate.accepted fsa ~max_len:2 in
        check_tuples "a, aa, ab" [ [ "a" ]; [ "aa" ]; [ "ab" ] ] got;
        (* On two output tapes, each completed within the bound — as the
           accepted set and, with a bound first tape, as a generator's
           outputs. *)
        let window = Window.And (Window.Is_char ("x", 'a'), Window.Is_char ("y", 'b')) in
        let phi = Sformula.left [ "x"; "y" ] window in
        let want =
          List.concat_map
            (fun x -> List.map (fun y -> [ x; y ]) [ "b"; "ba"; "bb" ])
            [ "a"; "aa"; "ab" ]
        in
        check_tuples "accepted" want
          (Generate.accepted (Compile.compile b ~vars:[ "x"; "y" ] phi) ~max_len:2);
        let fsa = Compile.compile b ~vars:[ "z"; "x"; "y" ] phi in
        check_tuples "outputs" want (Generate.outputs fsa ~inputs:[ "ab" ] ~max_len:2));
    tc "configurations blocked on two output tapes at once" (fun () ->
        (* x = y reads both tapes in lockstep, so one configuration sits
           on both frontiers; the union starts a thread on each tape, so
           one node holds configurations blocked on different tapes. *)
        List.iter
          (fun phi ->
            let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
            let want =
              List.filter (fun t -> Run.accepts fsa t) (all_tuples b ~arity:2 ~max_len:3)
              |> List.sort compare
            in
            check_tuples (Sformula.to_string phi) want (Generate.accepted fsa ~max_len:3);
            check_tuples "naive" want (Generate.accepted_naive fsa ~max_len:3))
          [
            Combinators.equal_s "x" "y";
            Sformula.Union
              ( Sformula.seq [ Combinators.literal "x" "ab"; Sformula.left [ "y" ] (Window.Is_char ("y", 'b')) ],
                Sformula.seq [ Combinators.literal "y" "a"; Sformula.left [ "x" ] (Window.Is_empty "x") ] );
          ]);
    tc "threads on different tapes do not multiply" (fun () ->
        (* Two threads: one writes any x and then requires y = "a", the
           other writes any y and then requires x = "b".  Carried through
           each other's branching, each thread would re-run its whole
           subtree under every leaf of the other's: 2¹³ × 2¹³ nodes at
           this bound.  Branching per blocked tape keeps the work near
           the 16381 answers. *)
        let fsa = two_threads () in
        let max_len = 12 in
        let words = Strutil.all_strings_upto b max_len in
        let want =
          List.map (fun w -> [ w; "a" ]) words @ List.map (fun w -> [ "b"; w ]) words
          |> List.sort_uniq compare
        in
        let before = Sys.time () in
        let got = Generate.accepted_fast fsa ~max_len in
        let seconds = Sys.time () -. before in
        check_tuples "both threads' answers" want got;
        (* About 0.03 s of CPU time on a 2-core x86-64 host.  Carrying
           the threads took 2 s at bound 10, growing fourfold per
           letter. *)
        if seconds > 2. then
          Alcotest.failf "the walk took %.1f s of CPU time for %d answers" seconds
            (List.length want));
    tc "a long output under a huge bound allocates little" (fun () ->
        (* A 22-letter concatenation under a bound of 10⁶: scratch sized
           by the bound would allocate megabytes. *)
        let fsa = Compile.compile b ~vars:[ "y"; "z"; "x" ] (Combinators.concat3 "x" "y" "z") in
        let u = "abbabaabbab" and v = "babbaabbaba" in
        let max_len = 1_000_000 in
        ignore (Generate.outputs fsa ~inputs:[ u; v ] ~max_len);
        let before = Gc.allocated_bytes () in
        let got = Generate.outputs fsa ~inputs:[ u; v ] ~max_len in
        let bytes = Gc.allocated_bytes () -. before in
        check_tuples "the concatenation" [ [ u ^ v ] ] got;
        if bytes >= 1e6 then Alcotest.failf "enumeration allocated %.0f bytes" bytes);
    tc "is_empty_upto" (fun () ->
        check_bool "zero empty" true
          (Generate.is_empty_upto (Compile.compile b ~vars:[ "x" ] Sformula.zero) ~max_len:3);
        check_bool "lambda nonempty" false
          (Generate.is_empty_upto (Compile.compile b ~vars:[ "x" ] Sformula.Lambda) ~max_len:0);
        let concat = Compile.compile b ~vars:[ "y"; "z"; "x" ] (Combinators.concat3 "x" "y" "z") in
        check_bool "abba within 4" false
          (Generate.is_empty_upto concat ~inputs:[ "ab"; "ba" ] ~max_len:4);
        check_bool "abba over 3" true
          (Generate.is_empty_upto concat ~inputs:[ "ab"; "ba" ] ~max_len:3);
        (* (a+c+g+t)* over DNA at bound 14: the walk stops at its first
           answer instead of enumerating 4¹⁴ strings of length 14. *)
        let dna = Alphabet.dna in
        let any = Compile.compile dna ~vars:[ "x" ] (Sformula.Star (Sformula.left [ "x" ] Window.True)) in
        ignore (Generate.is_empty_upto any ~max_len:1);
        let before = Gc.minor_words () in
        check_bool "(a+c+g+t)* nonempty" false (Generate.is_empty_upto any ~max_len:14);
        let words_allocated = Gc.minor_words () -. before in
        if words_allocated > 1e5 then
          Alcotest.failf "is_empty_upto allocated %.0f words" words_allocated);
  ]

let suites =
  [
    ("fsa.construction", construction_tests);
    ("fsa.run", run_tests);
    ("fsa.specialize", specialize_tests);
    ("fsa.generate", generate_tests);
  ]
