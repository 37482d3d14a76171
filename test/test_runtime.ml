(* The fast k-FSA runtime: packed configuration keys, indexed transition
   dispatch, and the compile memo cache.  Covers the encode/decode
   round trips at boundary tape lengths and the dispatch ≡ List.filter
   property; cross-implementation equivalence on random formulae lives in
   test_qcheck.ml. *)
open Strdb
open Helpers

let b = Alphabet.binary
let dna = Alphabet.dna

(* ---------------------------------------------------------------- keys *)

let key_tests =
  [
    tc "pack/unpack round trip at boundary tape lengths" (fun () ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] (Combinators.equal_s "x" "y") in
        (* Lengths 0, 1 and a longer mix, including the extreme head
           positions 0 and n+1 on each tape. *)
        List.iter
          (fun lens ->
            match Runtime.layout fsa (Array.of_list lens) with
            | None -> Alcotest.failf "layout refused small lengths"
            | Some l ->
                let dims = List.map (fun n -> n + 2) lens in
                let rec positions = function
                  | [] -> [ [] ]
                  | d :: rest ->
                      let tails = positions rest in
                      List.concat_map
                        (fun p -> List.map (fun t -> p :: t) tails)
                        (List.init d (fun i -> i))
                in
                let seen = Hashtbl.create 256 in
                List.iter
                  (fun pos ->
                    for state = 0 to fsa.Fsa.num_states - 1 do
                      let pos = Array.of_list pos in
                      let key = Runtime.pack l ~state ~pos in
                      check_bool "key in range" true (key >= 0 && key < l.Runtime.total);
                      check_bool "key unique" false (Hashtbl.mem seen key);
                      Hashtbl.replace seen key ();
                      let state', pos' = Runtime.unpack l key in
                      check_int "state round trip" state state';
                      check_bool "pos round trip" true (pos = pos')
                    done)
                  (positions dims))
          [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 3; 5 ] ]);
    tc "layout totals count every configuration" (fun () ->
        let fsa = Compile.compile b ~vars:[ "x" ] (Combinators.literal "x" "ab") in
        match Runtime.layout fsa [| 4 |] with
        | None -> Alcotest.fail "layout refused"
        | Some l ->
            check_int "total" (fsa.Fsa.num_states * 6) l.Runtime.total);
    tc "layout declines overflowing key spaces" (fun () ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] (Combinators.equal_s "x" "y") in
        check_bool "overflow is None" true
          (Runtime.layout fsa [| max_int / 2; max_int / 2 |] = None));
  ]

(* ------------------------------------------------------------ dispatch *)

let dispatch_tests =
  [
    tc "indexed dispatch equals List.filter over outgoing" (fun () ->
        forall_seeded ~iters:40 (fun g seed ->
            let phi = random_sformula g b [ "x"; "y" ] 3 in
            let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
            let rt = Runtime.index fsa in
            check_bool "indexable" true (Runtime.indexable rt);
            let syms = Symbol.all b in
            List.iter
              (fun s0 ->
                List.iter
                  (fun s1 ->
                    let vec = [| s0; s1 |] in
                    let code = Runtime.code_of_symbols rt vec in
                    for q = 0 to fsa.Fsa.num_states - 1 do
                      let got =
                        Runtime.transitions_for rt ~state:q ~code
                        |> Array.to_list
                        |> List.map (Runtime.transition rt)
                      in
                      let want =
                        List.filter
                          (fun (tr : Fsa.transition) ->
                            Array.for_all2 Symbol.equal tr.read vec)
                          (Fsa.outgoing fsa q)
                      in
                      if got <> want then
                        Alcotest.failf "seed %d: dispatch mismatch at state %d" seed q
                    done)
                  syms)
              syms));
    tc "symbol-vector codes are injective" (fun () ->
        let fsa = Compile.compile dna ~vars:[ "x"; "y" ] (Combinators.equal_s "x" "y") in
        let rt = Runtime.index fsa in
        let syms = Symbol.all dna in
        let seen = Hashtbl.create 64 in
        List.iter
          (fun s0 ->
            List.iter
              (fun s1 ->
                let code = Runtime.code_of_symbols rt [| s0; s1 |] in
                check_bool "code fresh" false (Hashtbl.mem seen code);
                Hashtbl.replace seen code ())
              syms)
          syms);
    tc "index is cached per FSA identity" (fun () ->
        let fsa = Compile.compile b ~vars:[ "x" ] (Combinators.literal "x" "ab") in
        check_bool "same index" true (Runtime.index fsa == Runtime.index fsa));
  ]

(* ----------------------------------------------------------- acceptance *)

let acceptance_tests =
  [
    tc "packed acceptance agrees with naive on worked examples" (fun () ->
        let occ = Compile.compile dna ~vars:[ "x"; "y" ] (Combinators.occurs_in "x" "y") in
        List.iter
          (fun tup ->
            check_bool
              (Printf.sprintf "occurs_in (%s)" (String.concat "," tup))
              (Run.accepts_naive occ tup) (Run.accepts occ tup))
          [
            [ "ac"; "gacga" ]; [ "ac"; "gtt" ]; [ ""; "" ]; [ ""; "a" ];
            [ "acgt"; "acgt" ]; [ "t"; "" ];
          ]);
  ]

(* ------------------------------------------------------------ DFA kernel *)

(* [(a+b)*a(a+b)^k]: the k+1-th letter from the end is an a.  Its DFA
   needs 2^(k+1) states, so k moves it across the state budget. *)
let kth_from_end k =
  Compile.compile b ~vars:[ "x" ]
    (Regex_embed.matches "x"
       (Regex.parse ("(a+b)*a" ^ String.concat "" (List.init k (fun _ -> "(a+b)")))))

let agrees_naive fsa words =
  List.iter
    (fun w ->
      check_bool (Printf.sprintf "%S" w) (Run.accepts_naive fsa [ w ]) (Run.accepts fsa [ w ]))
    words

let dfa_tests =
  [
    tc "one-tape one-way automata run the DFA kernel" (fun () ->
        let fsa = kth_from_end 3 in
        check_string "kernel" "one-way DFA, 16 states"
          (Runtime.kernel_name (Optimize.optimized fsa));
        agrees_naive fsa (Strutil.all_strings_upto b 7));
    tc "past the state budget the frontier kernel keeps the automaton" (fun () ->
        let fsa = kth_from_end 10 in
        check_string "kernel" "one-way frontier"
          (Runtime.kernel_name (Optimize.optimized fsa));
        let g = Prng.create 61 in
        agrees_naive fsa ("" :: List.init 300 (fun _ -> Prng.string_upto g b 16)));
    tc "racing first builds converge on one DFA" (fun () ->
        let fsa = kth_from_end 4 in
        Runtime.clear_cache ();
        let g = Prng.create 67 in
        let tuples = List.init 400 (fun _ -> [ Prng.string_upto g b 12 ]) in
        let parallel = Run.accepts_batch ~pool:(Pool.get 4) fsa tuples in
        check_bool "parallel ≡ naive" true
          (Array.to_list parallel = List.map (Run.accepts_naive fsa) tuples);
        check_bool "parallel ≡ sequential" true
          (parallel = Run.accepts_batch fsa tuples);
        check_bool "the DFA is kept" true
          (String.starts_with ~prefix:"one-way DFA"
             (Runtime.kernel_name (Optimize.optimized fsa))));
  ]

(* ------------------------------------------------------- frontier kernel *)

(* Edit distance ≤ d through the frontier kernel on 300 rows, checked
   against [Edit_distance.within].  After the optimize pass, d = 2 has
   56 states and fits one bitset word; d = 3 has 82 ([wide]), so its
   state sets span two words. *)
let check_edit_rows ~d ~wide =
  let fsa =
    Compile.compile dna ~vars:[ "u"; "v" ] (Combinators.edit_distance_le "u" "v" d)
  in
  let o = Optimize.optimized fsa in
  if wide then
    check_bool "more states than one 63-bit word" true (o.Fsa.num_states > 63);
  check_string "kernel" "one-way frontier" (Runtime.kernel_name o);
  let g = Prng.create 71 in
  for i = 0 to 299 do
    let u = Prng.string g dna (i mod 11) in
    let v =
      if i mod 3 = 0 then Prng.string_upto g dna 12
      else Workload.mutate g dna ~edits:(i mod 5) u
    in
    check_bool
      (Printf.sprintf "(%S, %S)" u v)
      (Edit_distance.within u v d)
      (Run.accepts fsa [ u; v ])
  done

(* Multi-tape one-way automata, acceptance graphs and rows over the
   scratch budget; random one-way formulae are in test_qcheck.ml. *)
let frontier_tests =
  [
    tc "state sets wider than one word: edit distance ≤ 2" (fun () ->
        check_edit_rows ~d:2 ~wide:false);
    tc "two-word state sets: edit distance ≤ 3" (fun () ->
        check_edit_rows ~d:3 ~wide:true);
    tc "three tapes: concat3 ≡ string concatenation" (fun () ->
        let fsa =
          Compile.compile dna ~vars:[ "x"; "y"; "z" ] (Combinators.concat3 "x" "y" "z")
        in
        check_string "kernel" "one-way frontier"
          (Runtime.kernel_name (Optimize.optimized fsa));
        let g = Prng.create 73 in
        for i = 0 to 299 do
          let y = Prng.string_upto g dna 6 and z = Prng.string_upto g dna 6 in
          let x =
            match i mod 4 with
            | 0 | 1 -> y ^ z
            | 2 -> Prng.string_upto g dna 13
            | _ -> Prng.string_upto g dna 3
          in
          check_bool
            (Printf.sprintf "(%S, %S, %S)" x y z)
            (x = y ^ z)
            (Run.accepts fsa [ x; y; z ])
        done);
    tc "sparse dispatch: four tapes over 36 letters" (fun () ->
        (* t0 = t1·t2 with t3 = t0, built by hand: 38⁴ symbol vectors
           put the dispatch table over the dense budget, and the
           moves advance four different sets of tapes. *)
        let sigma = Alphabet.of_string "abcdefghijklmnopqrstuvwxyz0123456789" in
        let l = Symbol.Lend and r = Symbol.Rend and c ch = Symbol.Chr ch in
        let tr src read dst moves = Fsa.transition ~src ~read ~dst ~moves in
        let per_char f = List.map f (Alphabet.chars sigma) in
        let fsa =
          Fsa.make ~sigma ~arity:4 ~num_states:4 ~start:0 ~finals:[ 3 ]
            ~transitions:
              ((tr 0 [ l; l; l; l ] 1 [ 1; 1; 0; 1 ]
               :: tr 1 [ r; r; l; r ] 2 [ 0; 0; 1; 0 ]
               :: tr 2 [ r; r; r; r ] 3 [ 0; 0; 0; 0 ]
               :: per_char (fun ch -> tr 1 [ c ch; c ch; l; c ch ] 1 [ 1; 1; 0; 1 ]))
              @ per_char (fun ch -> tr 1 [ c ch; r; l; c ch ] 2 [ 0; 0; 1; 0 ])
              @ per_char (fun ch -> tr 2 [ c ch; r; c ch; c ch ] 2 [ 1; 0; 1; 1 ]))
        in
        check_string "kernel" "one-way frontier"
          (Runtime.kernel_name (Optimize.optimized fsa));
        let g = Prng.create 83 in
        for i = 0 to 199 do
          let y = Prng.string_upto g sigma 5 and z = Prng.string_upto g sigma 5 in
          let x = if i mod 3 = 0 then Prng.string_upto g sigma 10 else y ^ z in
          let w = if i mod 4 = 0 then Prng.string_upto g sigma 10 else x in
          let tup = [ x; y; z; w ] in
          check_bool (String.concat "," tup) (x = y ^ z && w = x) (Run.accepts fsa tup);
          check_bool "≡ naive" (Run.accepts_naive fsa tup) (Run.accepts fsa tup)
        done);
    tc "arity 0: acceptance graphs run the kernel" (fun () ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] (Combinators.occurs_in "x" "y") in
        List.iter
          (fun tup ->
            let g = Specialize.acceptance_graph fsa tup in
            let want = Run.accepts_naive fsa tup in
            check_bool "the kernel decides" true
              (Runtime.try_accepts (Optimize.optimized g) [] = Some want);
            check_bool (String.concat "," tup) want (Run.accepts g []))
          (all_tuples b ~arity:2 ~max_len:3));
    tc "over the scratch budget the packed search decides" (fun () ->
        let fsa =
          Compile.compile dna ~vars:[ "x"; "y"; "z" ] (Combinators.concat3 "x" "y" "z")
        in
        let o = Optimize.optimized fsa in
        let g = Prng.create 79 in
        (* 4 levels × 602² cells × 2 words exceeds 2²⁰ words, so the
           frontier kernel declines and the packed search decides. *)
        let y = Prng.string g dna 600 and z = Prng.string g dna 600 in
        List.iter
          (fun x ->
            let tup = [ x; y; z ] in
            check_bool "decided" true (Runtime.try_accepts o tup = Some (x = y ^ z));
            check_bool "answer" (x = y ^ z) (Run.accepts fsa tup);
            check_bool "≡ naive" (Run.accepts_naive fsa tup) (Run.accepts fsa tup))
          [ y ^ z; y ^ String.map (fun c -> if c = 'a' then 'c' else 'a') z ]);
  ]

(* ---------------------------------------------------------- compile cache *)

let cache_tests =
  [
    tc "compile memo returns the shared automaton" (fun () ->
        Compile.clear_cache ();
        let phi = Combinators.equal_s "x" "y" in
        let a1 = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let a2 = Compile.compile b ~vars:[ "x"; "y" ] phi in
        check_bool "physically shared" true (a1 == a2);
        (* Different tape order, alphabet or trim flag each miss. *)
        let a3 = Compile.compile b ~vars:[ "y"; "x" ] phi in
        check_bool "var order distinguishes" true (a1 != a3);
        let a4 = Compile.compile dna ~vars:[ "x"; "y" ] phi in
        check_bool "alphabet distinguishes" true (a1 != a4);
        let a5 = Compile.compile ~trim:false b ~vars:[ "x"; "y" ] phi in
        check_bool "trim flag distinguishes" true (a1 != a5));
    (* Regression: the memo used to evict by Hashtbl.reset when full,
       dropping every cached FSA at once and severing the physical
       identity chain the Runtime index cache composes with.  Eviction
       is now per-entry LRU: a cached automaton survives a flood of
       unrelated insertions (with == identity intact) as long as it
       stays recently used. *)
    tc "LRU memo: an entry survives 64 unrelated insertions" (fun () ->
        Compile.clear_cache ();
        let phi = Combinators.equal_s "x" "y" in
        let a = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let idx = Runtime.index a in
        for i = 1 to 64 do
          (* 64 structurally distinct formulae: literal tests on the
             binary spellings of 1..64 over {a,b}. *)
          let w =
            String.init 7 (fun j -> if i land (1 lsl j) <> 0 then 'a' else 'b')
          in
          ignore (Compile.compile b ~vars:[ "x" ] (Combinators.literal "x" w))
        done;
        let a' = Compile.compile b ~vars:[ "x"; "y" ] phi in
        check_bool "physically identical after the flood" true (a == a');
        check_bool "index cache chain intact" true (Runtime.index a' == idx));
    tc "cache statistics count hits, misses and entries" (fun () ->
        Compile.clear_cache ();
        Runtime.clear_cache ();
        let phi = Combinators.prefix "x" "y" in
        let a = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let cs = Compile.stats () in
        check_bool "first compile is a miss" true (cs.Compile.misses >= 1);
        let _ = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let cs' = Compile.stats () in
        check_int "second compile is a hit" (cs.Compile.hits + 1) cs'.Compile.hits;
        check_bool "entries visible" true (cs'.Compile.entries >= 1);
        ignore (Run.accepts a [ "a"; "ab" ]);
        ignore (Run.accepts a [ "a"; "ab" ]);
        let rs = Runtime.stats () in
        check_bool "index miss then hit" true
          (rs.Runtime.misses >= 1 && rs.Runtime.hits >= 1);
        check_bool "index entries visible" true (rs.Runtime.entries >= 1));
    tc "E1-style suite runs with <1% index-cache eviction rate" (fun () ->
        (* The PR 2 bench measured 89k evictions over a 64-entry bound on
           the E1 sweep: per-row specialized automata (identity-keyed,
           never seen again) flooded the cache.  With the generate path
           on uncached local indices and the default bound sized to the
           compiled working set, a query suite must stay eviction-free
           to within noise. *)
        let db = Workload.genomic_db ~seed:11 ~n:6 ~len:5 in
        let queries =
          [
            ( [ "u"; "v" ],
              Formula.And
                ( Formula.Rel ("pair", [ "u"; "v" ]),
                  Formula.Str (Combinators.equal_s "u" "v") ) );
            ( [ "u"; "v" ],
              Formula.And
                ( Formula.Rel ("pair", [ "u"; "v" ]),
                  Formula.Str (Combinators.occurs_in "u" "v") ) );
            ( [ "x" ],
              Formula.exists_many [ "u"; "v" ]
                (Formula.and_list
                   [
                     Formula.Rel ("pair", [ "u"; "v" ]);
                     Formula.Str (Combinators.concat3 "x" "u" "v");
                   ]) );
            (let counting, same_len =
               Combinators.equal_count_parts "x" "y" "z" 'a' 'c'
             in
             ( [ "x" ],
               Formula.exists_many [ "y"; "z" ]
                 (Formula.and_list
                    [
                      Formula.Rel ("seq", [ "x" ]); Formula.Str counting;
                      Formula.Str same_len;
                    ]) ));
            ( [ "x" ],
              Formula.Exists
                ( "y",
                  Formula.And
                    ( Formula.Rel ("seq", [ "x" ]),
                      Formula.Str (Combinators.anbncn "x" "y") ) ) );
          ]
        in
        Runtime.clear_cache ();
        Compile.clear_cache ();
        Optimize.clear_cache ();
        List.iter
          (fun (free, phi) ->
            let q = Query.make ~free phi in
            match Query.run dna db q with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "query rejected: %s" e)
          queries;
        let s = Runtime.stats () in
        let total = s.Runtime.hits + s.Runtime.misses in
        check_bool "cache saw traffic" true (total > 0);
        if s.Runtime.evictions * 100 >= total then
          Alcotest.failf "eviction rate too high: %d evictions / %d lookups"
            s.Runtime.evictions total);
  ]

(* ------------------------------------------------------------ generate *)

let generate_tests =
  [
    tc "fast enumerator equals naive on combinators" (fun () ->
        List.iter
          (fun (vars, phi) ->
            let fsa = Compile.compile b ~vars phi in
            check_bool "same tuples" true
              (Generate.accepted_fast fsa ~max_len:2
              = Generate.accepted_naive fsa ~max_len:2))
          [
            ([ "x"; "y" ], Combinators.equal_s "x" "y");
            ([ "x"; "y"; "z" ], Combinators.concat3 "x" "y" "z");
            ([ "x"; "y" ], Combinators.prefix "x" "y");
            ([ "x"; "y" ], Combinators.manifold "x" "y");
          ]);
    tc "a concat generator answers alike on 4 domains and on 1" (fun () ->
        (* Each bound row walks on whichever domain takes it, so walks
           run concurrently; scratch shared between them would mix
           rows' prefixes. *)
        let db = Workload.pair_db dna ~seed:5 ~name:"pair" ~n:200 ~len:24 in
        let phi =
          Formula.And
            (Formula.Rel ("pair", [ "u"; "v" ]), Formula.Str (Combinators.concat3 "x" "u" "v"))
        in
        let free = [ "u"; "v"; "x" ] in
        let want =
          List.map (fun row -> match row with [ u; v ] -> [ u; v; u ^ v ] | _ -> row)
            (Database.find db "pair")
          |> List.sort_uniq compare
        in
        let run domains =
          Generate.clear_spec_cache ();
          match Eval.run ~domains dna db ~free phi with
          | Ok rows -> rows
          | Error e -> Alcotest.failf "query rejected: %s" e
        in
        check_tuples "1 domain" want (run 1);
        (* Rows interleave differently on every run: repeat it. *)
        for _ = 1 to 3 do
          check_tuples "4 domains" want (run 4)
        done);
  ]

let suites =
  [
    ("runtime.keys", key_tests);
    ("runtime.dispatch", dispatch_tests);
    ("runtime.acceptance", acceptance_tests);
    ("runtime.dfa", dfa_tests);
    ("runtime.frontier", frontier_tests);
    ("runtime.cache", cache_tests);
    ("runtime.generate", generate_tests);
  ]
