(* The full benchmark harness: one section per experiment in DESIGN.md's
   per-experiment index.  Each section prints the paper-shaped rows/series
   (who wins, scaling shapes, crossovers); EXPERIMENTS.md records the
   paper-claim vs. measured outcome for every entry.

   Run with:  dune exec bench/main.exe            (full suite)
              dune exec bench/main.exe -- quick   (skip the slowest rows) *)

open Strdb
open Bechamel
module B = Bench_util

let quick = Array.exists (fun a -> a = "quick") Sys.argv

(* Full runs refresh the committed BENCH_*.json at the repository root;
   quick runs write under _build/bench/, so a smoke run never overwrites
   a full-mode record. *)
let json_path file =
  if not quick then file
  else begin
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ "_build"; "_build/bench" ];
    Filename.concat "_build/bench" file
  end

let b2 = Alphabet.binary
let dna = Alphabet.dna

(* ---------------------------------------------------------------- F1/F2 *)

let fig12 () =
  B.section "F1/F2 — Figs. 1-2: alignments and transposes (reproduction)";
  let a0 = Alignment.initial [ ("x", "abc"); ("y", "abb"); ("z", "cacd") ] in
  let a =
    Alignment.transpose a0 { Sformula.tvars = [ "x"; "y"; "z" ]; dir = Sformula.Left }
  in
  let a = Alignment.transpose a { Sformula.tvars = [ "z" ]; dir = Sformula.Left } in
  Format.printf "Fig. 1 alignment:@.%a@." Alignment.pp a;
  Printf.printf "window column: x=%s y=%s z=%s\n"
    (Symbol.to_string (Alignment.window a "x"))
    (Symbol.to_string (Alignment.window a "y"))
    (Symbol.to_string (Alignment.window a "z"));
  let t1 = Alignment.transpose a { Sformula.tvars = [ "x" ]; dir = Sformula.Left } in
  let t2 = Alignment.transpose a { Sformula.tvars = [ "x"; "z" ]; dir = Sformula.Right } in
  Format.printf "Fig. 2 (top right, [x]l):@.%a@." Alignment.pp t1;
  Format.printf "Fig. 2 (bottom right, [x,z]r):@.%a@." Alignment.pp t2

(* ------------------------------------------------------------------- F6 *)

let fig6 () =
  B.section "F6 — Fig. 6: the concatenation formula and its 3-FSA";
  let phi = Combinators.concat3 "x1" "x2" "x3" in
  Printf.printf "string formula: %s\n" (Sformula.to_string phi);
  let fsa = Compile.compile b2 ~vars:[ "x1"; "x2"; "x3" ] phi in
  Printf.printf "compiled 3-FSA: %d states, %d transitions (paper draws 6 states)\n"
    fsa.Fsa.num_states (Fsa.size fsa);
  Printf.printf "accepts (ab,a,b)=%b  rejects (ab,b,a)=%b\n"
    (Run.accepts fsa [ "ab"; "a"; "b" ])
    (not (Run.accepts fsa [ "ab"; "b"; "a" ]))

(* -------------------------------------------------------------------- E1 *)

(* The twelve Section 2 example queries, shared by the E1 section and the
   conjunct-fusion bench (F1). *)
let e1_queries () =
  [
    ( "Q1 second component of acga-pairs",
      [ "x" ],
      Formula.Exists
        ( "y",
          Formula.And
            (Formula.Rel ("pair", [ "y"; "x" ]), Formula.Str (Combinators.literal "y" "acga"))
        ) );
    ( "Q2 equal pairs",
      [ "u"; "v" ],
      Formula.And
        (Formula.Rel ("pair", [ "u"; "v" ]), Formula.Str (Combinators.equal_s "u" "v")) );
    ( "Q3 concatenations of pairs",
      [ "x" ],
      Formula.exists_many [ "u"; "v" ]
        (Formula.and_list
           [ Formula.Rel ("pair", [ "u"; "v" ]); Formula.Str (Combinators.concat3 "x" "u" "v") ])
    );
    ( "Q4 manifold pairs",
      [ "x"; "y" ],
      Formula.and_list
        [
          Formula.Rel ("seq", [ "x" ]); Formula.Rel ("seq", [ "y" ]);
          Formula.Str (Combinators.manifold "x" "y");
        ] );
    ( "Q5 shuffles of pairs found in seq",
      [ "x" ],
      Formula.exists_many [ "u"; "v" ]
        (Formula.and_list
           [
             Formula.Rel ("pair", [ "u"; "v" ]); Formula.Rel ("seq", [ "x" ]);
             Formula.Str (Combinators.shuffle3 "x" "u" "v");
           ]) );
    ( "Q6 sequences matching (gc+a)*",
      [ "x" ],
      Formula.And
        ( Formula.Rel ("seq", [ "x" ]),
          Formula.Str (Regex_embed.matches "x" (Regex.parse "(gc+a)*")) ) );
    ( "Q7 pairs where u occurs in v",
      [ "u"; "v" ],
      Formula.And
        (Formula.Rel ("pair", [ "u"; "v" ]), Formula.Str (Combinators.occurs_in "u" "v")) );
    ( "Q8 pairs within edit distance 2",
      [ "u"; "v" ],
      Formula.And
        ( Formula.Rel ("pair", [ "u"; "v" ]),
          Formula.Str (Combinators.edit_distance_le "u" "v" 2) ) );
    ( "Q9 aXtXa structures",
      [ "x" ],
      Formula.exists_many [ "u"; "w" ]
        (Formula.and_list
           [
             Formula.Rel ("seq", [ "x" ]);
             Formula.Str (Combinators.equal_s "u" "w");
             Formula.Str (Combinators.axbxa "x" "u" "w" 'a' 't');
           ]) );
    (let counting, same_len = Combinators.equal_count_parts "x" "y" "z" 'a' 'c' in
     ( "Q10 balanced a/c sequences",
       [ "x" ],
       Formula.exists_many [ "y"; "z" ]
         (Formula.and_list
            [ Formula.Rel ("seq", [ "x" ]); Formula.Str counting; Formula.Str same_len ]) ));
    ( "Q11 a^n c^n g^n sequences",
      [ "x" ],
      Formula.Exists
        ( "y",
          Formula.And
            (Formula.Rel ("seq", [ "x" ]), Formula.Str (Combinators.anbncn "x" "y")) ) );
    (let split, translated =
       Combinators.translation_halves_parts "x" "y" "z"
         [ ('a', 't'); ('t', 'a'); ('c', 'g'); ('g', 'c') ]
     in
     ( "Q12 complementary halves",
       [ "x" ],
       Formula.exists_many [ "y"; "z" ]
         (Formula.and_list
            [ Formula.Rel ("seq", [ "x" ]); Formula.Str split; Formula.Str translated ]) ));
  ]

let example_queries () =
  B.section "E1 — the twelve Section 2 example queries on a DNA database";
  let db = Workload.genomic_db ~seed:11 ~n:(if quick then 8 else 16) ~len:6 in
  let pairs = Database.find db "pair" in
  Printf.printf "database: %d sequences, %d pairs\n"
    (List.length (Database.find db "seq"))
    (List.length pairs);
  List.iter
    (fun (name, free, phi) ->
      let query = Query.make ~free phi in
      let result, dt = B.time_once (fun () -> Query.run dna db query) in
      match result with
      | Ok answers ->
          Printf.printf "  %-34s %4d answers  %8.2f ms\n%!" name
            (List.length answers) (dt *. 1e3)
      | Error e -> Printf.printf "  %-34s rejected (%s)\n%!" name e)
    (e1_queries ())

(* -------------------------------------------------------------------- E2 *)

let compilation () =
  B.section "E2 — Theorem 3.1: compiled FSA size vs formula size";
  Printf.printf "%-28s %8s %10s %12s %12s\n" "formula" "|φ|" "|A| trim"
    "|A| no-trim" "states";
  let cases =
    [
      ("equal_s (k=2)", b2, [ "x"; "y" ], Combinators.equal_s "x" "y");
      ("concat3 (k=3)", b2, [ "x"; "y"; "z" ], Combinators.concat3 "x" "y" "z");
      ("manifold (k=2)", b2, [ "x"; "y" ], Combinators.manifold "x" "y");
      ("shuffle3 (k=3)", b2, [ "x"; "y"; "z" ], Combinators.shuffle3 "x" "y" "z");
      ("occurs_in (k=2)", b2, [ "x"; "y" ], Combinators.occurs_in "x" "y");
      ("edit<=1 (k=2)", b2, [ "x"; "y" ], Combinators.edit_distance_le "x" "y" 1);
      ("edit<=3 (k=2)", b2, [ "x"; "y" ], Combinators.edit_distance_le "x" "y" 3);
      ("anbncn (k=2)", Alphabet.abc, [ "x"; "y" ], Combinators.anbncn "x" "y");
      ("equal_s DNA (k=2)", dna, [ "x"; "y" ], Combinators.equal_s "x" "y");
      ("concat3 DNA (k=3)", dna, [ "x"; "y"; "z" ], Combinators.concat3 "x" "y" "z");
    ]
  in
  List.iter
    (fun (name, sigma, vars, phi) ->
      let trimmed = Compile.compile sigma ~vars phi in
      let raw = Compile.compile ~trim:false sigma ~vars phi in
      Printf.printf "%-28s %8d %10d %12d %12d\n" name (Sformula.size phi)
        (Fsa.size trimmed) (Fsa.size raw) trimmed.Fsa.num_states)
    cases;
  Printf.printf "\ncompilation time:\n";
  B.print_rows
    (List.map
       (fun (name, sigma, vars, phi) ->
         Test.make ~name (Staged.stage (fun () -> ignore (Compile.compile sigma ~vars phi))))
       [ ("compile equal_s", b2, [ "x"; "y" ], Combinators.equal_s "x" "y");
         ("compile manifold", b2, [ "x"; "y" ], Combinators.manifold "x" "y");
         ("compile edit<=2", b2, [ "x"; "y" ], Combinators.edit_distance_le "x" "y" 2) ])

(* -------------------------------------------------------------------- E3 *)

let acceptance_scaling () =
  B.section "E3 — Theorem 3.3: acceptance time scaling (fixed FSA, growing input)";
  let eq = Compile.compile dna ~vars:[ "x"; "y" ] (Combinators.equal_s "x" "y") in
  let occ = Compile.compile dna ~vars:[ "x"; "y" ] (Combinators.occurs_in "x" "y") in
  let mf = Compile.compile dna ~vars:[ "x"; "y" ] (Combinators.manifold "x" "y") in
  let lens = if quick then [ 16; 64 ] else [ 16; 64; 256; 1024 ] in
  let g = Prng.create 99 in
  let tests =
    List.concat_map
      (fun n ->
        let u = Prng.string g dna n in
        let v = Strutil.repeat u 2 in
        [
          Test.make
            ~name:(Printf.sprintf "equal_s BFS        n=%d" n)
            (Staged.stage (fun () -> ignore (Run.accepts eq [ u; u ])));
          Test.make
            ~name:(Printf.sprintf "equal_s DFS        n=%d" n)
            (Staged.stage (fun () -> ignore (Run.accepts_dfs eq [ u; u ])));
          Test.make
            ~name:(Printf.sprintf "occurs_in          n=%d" n)
            (Staged.stage (fun () -> ignore (Run.accepts occ [ u; v ])));
          Test.make
            ~name:(Printf.sprintf "manifold (2-way)   n=%d" n)
            (Staged.stage (fun () -> ignore (Run.accepts mf [ v; u ])));
        ])
      lens
  in
  B.print_rows ~quota:0.25 tests

(* -------------------------------------------------------------------- E4 *)

let specialization () =
  B.section "E4 — Lemma 3.1: specialisation cost and size vs input length";
  let occ = Compile.compile dna ~vars:[ "x"; "y" ] (Combinators.occurs_in "x" "y") in
  let g = Prng.create 5 in
  let lens = if quick then [ 8; 32 ] else [ 8; 32; 128; 512 ] in
  Printf.printf "%-8s %12s %16s\n" "n" "|B| (trans)" "bound |A|·(n+2)";
  List.iter
    (fun n ->
      let u = Prng.string g dna n in
      let spec = Specialize.specialize occ [ u ] in
      Printf.printf "%-8d %12d %16d\n" n (Fsa.size spec) (Fsa.size occ * (n + 2)))
    lens;
  B.print_rows ~quota:0.25
    (List.map
       (fun n ->
         let u = Prng.string g dna n in
         Test.make
           ~name:(Printf.sprintf "specialize occurs_in n=%d" n)
           (Staged.stage (fun () -> ignore (Specialize.specialize occ [ u ]))))
       lens)

(* -------------------------------------------------------------------- E5 *)

let regex_membership () =
  B.section "E5 — Theorem 6.1: regex membership, calculus route vs classical DFA";
  let r = Regex.parse "(gc+a)*" in
  let fsa = Compile.compile dna ~vars:[ "x" ] (Regex_embed.matches "x" r) in
  let dfa = Dfa.of_regex dna r in
  let g = Prng.create 17 in
  let lens = if quick then [ 32; 256 ] else [ 32; 256; 2048 ] in
  let tests =
    List.concat_map
      (fun n ->
        (* strings in the language so both do full scans *)
        let w =
          String.concat ""
            (List.init (n / 2) (fun _ -> if Prng.bool g then "gc" else "a"))
        in
        [
          Test.make
            ~name:(Printf.sprintf "alignment-calculus FSA n=%d" (String.length w))
            (Staged.stage (fun () -> ignore (Run.accepts fsa [ w ])));
          Test.make
            ~name:(Printf.sprintf "classical DFA          n=%d" (String.length w))
            (Staged.stage (fun () -> ignore (Dfa.accepts dfa w)));
        ])
      lens
  in
  B.print_rows ~quota:0.25 tests

(* -------------------------------------------------------------------- E6 *)

let limitation_analysis () =
  B.section "E6 — Theorem 5.2: limitation verdicts and analysis cost";
  let battery =
    [
      ("equal_s: x ⤳ y", b2, [ "x"; "y" ], Combinators.equal_s "x" "y", [ 0 ], [ 1 ]);
      ("concat3: y,z ⤳ x", b2, [ "y"; "z"; "x" ], Combinators.concat3 "x" "y" "z", [ 0; 1 ], [ 2 ]);
      ("occurs_in: x ⤳ y", b2, [ "x"; "y" ], Combinators.occurs_in "x" "y", [ 0 ], [ 1 ]);
      ("occurs_in: y ⤳ x", b2, [ "y"; "x" ], Combinators.occurs_in "x" "y", [ 0 ], [ 1 ]);
      ("manifold: x ⤳ y", b2, [ "x"; "y" ], Combinators.manifold "x" "y", [ 0 ], [ 1 ]);
      ("manifold: y ⤳ x", b2, [ "x"; "y" ], Combinators.manifold "x" "y", [ 1 ], [ 0 ]);
      ("prefix: y ⤳ x", b2, [ "y"; "x" ], Combinators.prefix "x" "y", [ 0 ], [ 1 ]);
      ("proper_prefix: x ⤳ y", b2, [ "x"; "y" ], Combinators.proper_prefix "x" "y", [ 0 ], [ 1 ]);
      ("reverse: y ⤳ x", b2, [ "y"; "x" ], Combinators.reverse_of "x" "y", [ 0 ], [ 1 ]);
    ]
  in
  Printf.printf "%-26s %-10s %-38s %9s\n" "constraint" "verdict" "limit function" "time";
  List.iter
    (fun (name, sigma, vars, phi, inputs, outputs) ->
      let fsa = Compile.compile sigma ~vars phi in
      let result, dt = B.time_once (fun () -> Limitation.analyze fsa ~inputs ~outputs) in
      let verdict, detail =
        match result with
        | Ok (Limitation.Limited b) -> ("LIMITED", b.Limitation.formula)
        | Ok (Limitation.Unlimited r) -> ("unlimited", r)
        | Error e -> ("error", e)
      in
      Printf.printf "%-26s %-10s %-38s %7.1f ms\n%!" name verdict
        (if String.length detail > 38 then String.sub detail 0 38 else detail)
        (dt *. 1e3))
    battery

(* -------------------------------------------------------------------- E7 *)

let query_scaling () =
  B.section "E7 — end-to-end query evaluation vs database size";
  let sizes = if quick then [ 4; 16 ] else [ 4; 16; 64; 256 ] in
  Printf.printf "%-10s %10s %12s\n" "db size" "answers" "time";
  List.iter
    (fun n ->
      let db = Workload.pair_db dna ~seed:3 ~name:"pair" ~n ~len:5 in
      let q =
        Query.make ~free:[ "x" ]
          (Formula.exists_many [ "u"; "v" ]
             (Formula.and_list
                [
                  Formula.Rel ("pair", [ "u"; "v" ]);
                  Formula.Str (Combinators.concat3 "x" "u" "v");
                ]))
      in
      let result, dt = B.time_once (fun () -> Query.run dna db q) in
      match result with
      | Ok answers ->
          Printf.printf "%-10d %10d %10.1f ms\n%!" n (List.length answers) (dt *. 1e3)
      | Error e -> Printf.printf "%-10d error: %s\n" n e)
    sizes

(* -------------------------------------------------------------------- E8 *)

let sat_bench () =
  B.section "E8 — Theorem 6.5: SAT via strings vs DPLL (random 3-CNF)";
  let cases = if quick then [ (4, 8) ] else [ (4, 8); (5, 12); (6, 18) ] in
  Printf.printf "%-14s %-22s %-14s %-8s\n" "instance" "via strings" "DPLL" "agree";
  List.iter
    (fun (nvars, clauses) ->
      let cnf = Workload.random_cnf ~seed:(nvars * 100) ~vars:nvars ~clauses ~width:3 in
      let via, t1 = B.time_once (fun () -> Qbf.sat_via_strings ~nvars cnf) in
      let dp, t2 = B.time_once (fun () -> Dpll.satisfiable cnf) in
      Printf.printf "n=%-3d m=%-6d %-8b %10.1f ms %-6b %5.2f ms %-8b\n%!" nvars clauses
        via (t1 *. 1e3) dp (t2 *. 1e3) (via = dp))
    cases;
  (* Climbing the hierarchy: one instance per level k (the k+1-tape
     compilation dominates — transition vectors are concrete, so the cost
     is (|Σ|+2)^(k+1) per atomic formula). *)
  Printf.printf "\nalternation levels (Σᵖ_k membership via check_formula_k):\n";
  let levels =
    if quick then [ (1, [ 1 ], [ [ 1 ] ]) ]
    else
      [
        (1, [ 2 ], [ [ 1; 2 ]; [ -1; -2 ] ]);
        (2, [ 1; 1 ], [ [ 1; 2 ]; [ 1; -2 ] ]);
        (3, [ 1; 1; 1 ], [ [ 1; -2; 3 ]; [ -1; 2; -3 ] ]);
      ]
  in
  List.iter
    (fun (k, blocks, cnf) ->
      let via, dt = B.time_once (fun () -> Qbf.ph_valid ~blocks cnf) in
      Printf.printf "  k=%d  valid=%-5b (brute agrees: %b) %10.1f ms\n%!" k via
        (Qbf.brute_force_ph ~blocks cnf = via)
        (dt *. 1e3))
    levels

(* -------------------------------------------------------------------- E9 *)

let strategy_ablation () =
  B.section
    "E9 — ablation: generator pipeline vs Theorem 4.2 algebra (Materialize vs Generate)";
  let db = Workload.pair_db b2 ~seed:21 ~name:"pair" ~n:3 ~len:2 in
  let phi =
    Formula.exists_many [ "u"; "v" ]
      (Formula.and_list
         [
           Formula.Rel ("pair", [ "u"; "v" ]);
           Formula.Str (Combinators.concat3 "x" "u" "v");
         ])
  in
  let q = Query.make ~free:[ "x" ] phi in
  let run name f =
    let result, dt = B.time_once f in
    match result with
    | Ok answers ->
        Printf.printf "  %-42s %4d answers %10.1f ms\n%!" name (List.length answers)
          (dt *. 1e3)
    | Error e -> Printf.printf "  %-42s error: %s\n" name e
  in
  run "Eval pipeline (join + Lemma 3.1 generators)" (fun () -> Query.run b2 db q);
  (* The literal Eq. 6 route at its inferred W(db) is astronomically large
     (that is the point of the limitation machinery); evaluate the
     Theorem 4.2 translation at the semantically sufficient cutoff 4 (the
     longest concatenation in this db) under both strategies instead. *)
  run "algebra, Generate strategy, cutoff 4" (fun () ->
      Ok (Query.run_truncated ~strategy:Algebra.Generate b2 db ~cutoff:4 q));
  run "algebra, Materialize strategy, cutoff 4" (fun () ->
      Ok (Query.run_truncated ~strategy:Algebra.Materialize b2 db ~cutoff:4 q));
  if not quick then
    run "algebra, Materialize, cutoff 6 (exponential)" (fun () ->
        Ok (Query.run_truncated ~strategy:Algebra.Materialize b2 db ~cutoff:6 q))

(* -------------------------------------------------------------------- R1 *)

(* Before/after for the packed/indexed runtime: the naive reference
   implementations stay in the tree (Run.accepts_naive,
   Generate.accepted_naive), so the comparison runs on identical
   workloads in one process.  The numbers land in BENCH_runtime.json
   for the perf trajectory. *)
let runtime_bench () =
  B.section "R1 — packed/indexed runtime vs naive reference";
  let g = Prng.create 123 in
  let accept_cases =
    [
      ("equal_s", (if quick then 64 else 256), Combinators.equal_s "x" "y",
       fun u -> [ u; u ]);
      ("occurs_in", (if quick then 64 else 256), Combinators.occurs_in "x" "y",
       fun u -> [ u; Strutil.repeat u 2 ]);
      ("manifold_2way", (if quick then 32 else 128), Combinators.manifold "x" "y",
       fun u -> [ Strutil.repeat u 2; u ]);
    ]
  in
  let accept_rows =
    List.map
      (fun (name, n, phi, mk) ->
        let fsa = Compile.compile dna ~vars:[ "x"; "y" ] phi in
        let input = mk (Prng.string g dna n) in
        let naive = B.time_per_run (fun () -> Run.accepts_naive fsa input) in
        let fast = B.time_per_run (fun () -> Run.accepts fsa input) in
        Printf.printf "  accept %-14s n=%-4d  naive %s  fast %s  speedup %6.1fx\n%!"
          name n
          (B.pretty_ns (naive *. 1e9))
          (B.pretty_ns (fast *. 1e9))
          (naive /. fast);
        (name, n, naive, fast))
      accept_cases
  in
  let gen_cases =
    [
      ("concat3", b2, [ "x"; "y"; "z" ], Combinators.concat3 "x" "y" "z",
       if quick then 3 else 5);
      ("prefix", b2, [ "x"; "y" ], Combinators.prefix "x" "y",
       if quick then 4 else 8);
    ]
  in
  let gen_rows =
    List.map
      (fun (name, sigma, vars, phi, max_len) ->
        let fsa = Compile.compile sigma ~vars phi in
        let naive = B.time_per_run (fun () -> Generate.accepted_naive fsa ~max_len) in
        let fast = B.time_per_run (fun () -> Generate.accepted_fast fsa ~max_len) in
        Printf.printf "  generate %-12s l=%-4d  naive %s  fast %s  speedup %6.1fx\n%!"
          name max_len
          (B.pretty_ns (naive *. 1e9))
          (B.pretty_ns (fast *. 1e9))
          (naive /. fast);
        (name, max_len, naive, fast))
      gen_cases
  in
  (* Emit the JSON record. *)
  let path = json_path "BENCH_runtime.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"runtime\",\n";
  Printf.fprintf oc "  \"mode\": %S,\n" (if quick then "quick" else "full");
  Printf.fprintf oc "  \"acceptance\": [\n";
  List.iteri
    (fun i (name, n, naive, fast) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"n\": %d, \"naive_ns\": %.0f, \"fast_ns\": %.0f, \
         \"speedup\": %.2f}%s\n"
        name n (naive *. 1e9) (fast *. 1e9) (naive /. fast)
        (if i = List.length accept_rows - 1 then "" else ","))
    accept_rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"generate\": [\n";
  List.iteri
    (fun i (name, max_len, naive, fast) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"max_len\": %d, \"naive_ns\": %.0f, \"fast_ns\": %.0f, \
         \"speedup\": %.2f}%s\n"
        name max_len (naive *. 1e9) (fast *. 1e9) (naive /. fast)
        (if i = List.length gen_rows - 1 then "" else ","))
    gen_rows;
  Printf.fprintf oc "  ]\n";
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "  wrote %s\n%!" path

(* -------------------------------------------------------------------- F1 *)

(* Conjunct fusion: σ-products of filters and selection pushdown into
   certified generators (lib/fsa/product.ml).  Reruns the E1 suite and
   two fusion-shaped focus queries with STRDB_FUSE flipped at runtime on
   identical workloads, and reports the product-construction counters
   (sync vs sequential vs budget fallbacks). *)
let fusion_bench () =
  B.section "F1 — conjunct fusion: σ-products + generation pushdown";
  let min_time = if quick then 0.1 else 0.3 in
  let db = Workload.genomic_db ~seed:11 ~n:(if quick then 8 else 12) ~len:6 in
  (* Longer strings for the pushdown query: more prefixes per row for
     the fused product to prune before materialization. *)
  let db_long =
    Workload.genomic_db ~seed:13 ~n:(if quick then 8 else 12)
      ~len:(if quick then 16 else 24)
  in
  let focus =
    [
      ( "QF1 prefixes of seq matching (gc+a)*",
        db_long,
        [ "x" ],
        Formula.Exists
          ( "y",
            Formula.and_list
              [
                Formula.Rel ("seq", [ "y" ]);
                Formula.Str (Combinators.prefix "x" "y");
                Formula.Str (Regex_embed.matches "x" (Regex.parse "(gc+a)*"));
              ] ) );
      ( "QF2 seqs containing both gc and ca",
        (* Multi-filter σ-fusion is roughly break-even in this engine:
           the saved passes are offset by the product's wider per-row
           frontier, and a selective cheapest-first cascade already skips
           most of the later passes.  Reported to keep the trade-off
           visible; the pushdown query above is where fusion pays. *)
        Workload.genomic_db ~seed:17 ~n:512 ~len:20,
        [ "x" ],
        Formula.and_list
          [
            Formula.Rel ("seq", [ "x" ]);
            Formula.Str
              (Regex_embed.matches "x" (Regex.parse "(a+c+g+t)*gc(a+c+g+t)*"));
            Formula.Str
              (Regex_embed.matches "x" (Regex.parse "(a+c+g+t)*ca(a+c+g+t)*"));
          ] );
    ]
  in
  let clear () =
    Runtime.clear_cache ();
    Compile.clear_cache ();
    Optimize.clear_cache ();
    Limitation.clear_cache ();
    Generate.clear_spec_cache ();
    Product.clear_cache ()
  in
  let run_suite () =
    List.map
      (fun (name, free, phi) ->
        let q = Query.make ~free phi in
        let dt = B.time_per_run ~min_time (fun () -> Query.run dna db q) in
        (name, dt))
      (e1_queries ())
  in
  let run_focus () =
    List.map
      (fun (name, fdb, free, phi) ->
        let q = Query.make ~free phi in
        let dt = B.time_per_run ~min_time (fun () -> Query.run dna fdb q) in
        (name, dt))
      focus
  in
  Product.set_enabled false;
  clear ();
  let e1_before = run_suite () in
  let focus_before = run_focus () in
  Product.set_enabled true;
  clear ();
  Product.reset_stats ();
  let e1_after = run_suite () in
  let focus_after = run_focus () in
  let stats = Product.stats () in
  let memo_hits = (List.assoc "product" (Memo.registered ())).Memo.hits in
  let total l = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 l in
  let e1_bt = total e1_before and e1_at = total e1_after in
  List.iter2
    (fun (name, b) (_, a) ->
      Printf.printf "  %-38s unfused %8.2f ms  fused %8.2f ms  %5.2fx\n%!" name
        (b *. 1e3) (a *. 1e3) (b /. a))
    (e1_before @ focus_before)
    (e1_after @ focus_after);
  Printf.printf "  E1 suite: unfused %.2f ms, fused %.2f ms, speedup %.2fx\n%!"
    (e1_bt *. 1e3) (e1_at *. 1e3) (e1_bt /. e1_at);
  Printf.printf
    "  products: %d attempts, %d sync, %d sequential, %d budget fallbacks \
     (budget %d states), %d cache hits\n%!"
    stats.Product.attempts stats.Product.sync_built stats.Product.seq_built
    stats.Product.budget_fallbacks (Product.state_budget ())
    memo_hits;
  let path = json_path "BENCH_fusion.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"fusion\",\n";
  Printf.fprintf oc "  \"mode\": %S,\n" (if quick then "quick" else "full");
  Printf.fprintf oc "  \"product_state_budget\": %d,\n" (Product.state_budget ());
  Printf.fprintf oc "  \"e1_suite\": {\n";
  Printf.fprintf oc "    \"unfused_ms\": %.2f,\n" (e1_bt *. 1e3);
  Printf.fprintf oc "    \"fused_ms\": %.2f,\n" (e1_at *. 1e3);
  Printf.fprintf oc "    \"speedup\": %.2f,\n" (e1_bt /. e1_at);
  Printf.fprintf oc "    \"queries\": [\n";
  List.iteri
    (fun i ((name, b), (_, a)) ->
      Printf.fprintf oc
        "      {\"name\": %S, \"unfused_ms\": %.2f, \"fused_ms\": %.2f, \
         \"speedup\": %.2f}%s\n"
        name (b *. 1e3) (a *. 1e3) (b /. a)
        (if i = List.length e1_before - 1 then "" else ","))
    (List.combine e1_before e1_after);
  Printf.fprintf oc "    ]\n";
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"focus_queries\": [\n";
  List.iteri
    (fun i ((name, b), (_, a)) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"unfused_ms\": %.2f, \"fused_ms\": %.2f, \
         \"speedup\": %.2f}%s\n"
        name (b *. 1e3) (a *. 1e3) (b /. a)
        (if i = List.length focus_before - 1 then "" else ","))
    (List.combine focus_before focus_after);
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc
    "  \"product_stats\": {\"attempts\": %d, \"sync_built\": %d, \
     \"seq_built\": %d, \"budget_fallbacks\": %d, \"ineligible\": %d, \
     \"cache_hits\": %d}\n"
    stats.Product.attempts stats.Product.sync_built stats.Product.seq_built
    stats.Product.budget_fallbacks stats.Product.ineligible
    memo_hits;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "  wrote %s\n%!" path

(* ------------------------------------------------------------------- T51 *)

let grammar_bench () =
  B.section "T51/T62 — grammar encodings: φ_G acceptance cost";
  let g =
    {
      Grammar.start = 'S';
      rules = [ ("S", "aBSc"); ("S", "aBc"); ("Ba", "aB"); ("Bb", "bb"); ("Bc", "bc") ];
    }
  in
  let sigma = Grammar.alphabet g in
  let phi = Grammar.formula g ~x1:"u" ~x2:"d" ~x3:"e" in
  let fsa = Compile.compile sigma ~vars:[ "u"; "d"; "e" ] phi in
  Printf.printf "φ_G size %d, FSA %d states %d transitions\n" (Sformula.size phi)
    fsa.Fsa.num_states (Fsa.size fsa);
  let words = if quick then [ "abc"; "aabbcc" ] else [ "abc"; "aabbcc"; "aaabbbccc" ] in
  List.iter
    (fun w ->
      match Grammar.derivation_to g w with
      | None -> Printf.printf "  %-12s no derivation\n" w
      | Some deriv ->
          let enc = Grammar.encode deriv in
          let ok, dt = B.time_once (fun () -> Run.accepts fsa [ w; enc; enc ]) in
          Printf.printf "  %-12s |enc|=%3d accept=%b %8.2f ms\n%!" w
            (String.length enc) ok (dt *. 1e3))
    words

(* ------------------------------------------------------------------- T66 *)

let lba_bench () =
  B.section "T66 — Theorem 6.6: LBA computations as single-string witnesses";
  let m = Lba.anbn in
  let words = if quick then [ "ab"; "aabb" ] else [ "ab"; "aabb"; "aaabbb" ] in
  List.iter
    (fun input ->
      match Lba.accepting_run m input with
      | None -> Printf.printf "  %-10s rejected by the LBA\n" input
      | Some run ->
          let enc = Lba.encode_run m run in
          let phi = Lba.formula m ~input ~x:"x" in
          let sigma =
            Alphabet.make
              (m.Lba.states @ m.Lba.tape_alphabet
              @ [ m.Lba.left_marker; m.Lba.right_marker ])
          in
          let fsa, ct = B.time_once (fun () -> Compile.compile sigma ~vars:[ "x" ] phi) in
          let ok, at = B.time_once (fun () -> Run.accepts fsa [ enc ]) in
          Printf.printf
            "  %-10s run %2d configs, witness %4d chars; compile %6.1f ms, accept %6.1f ms, ok=%b\n%!"
            input (List.length run) (String.length enc) (ct *. 1e3) (at *. 1e3) ok)
    words

(* ------------------------------------------------------------ substring *)

let substring_bench () =
  B.section "E1c — Example 7 head-to-head: occurs_in FSA vs KMP vs naive scan";
  let fsa = Compile.compile dna ~vars:[ "x"; "y" ] (Combinators.occurs_in "x" "y") in
  let g = Prng.create 77 in
  let lens = if quick then [ 64 ] else [ 64; 512 ] in
  let tests =
    List.concat_map
      (fun n ->
        let motif = Prng.string g dna 5 in
        let text = Workload.plant_motif g dna ~motif ~len:n in
        [
          Test.make
            ~name:(Printf.sprintf "alignment-calculus FSA n=%d" n)
            (Staged.stage (fun () -> ignore (Run.accepts fsa [ motif; text ])));
          Test.make
            ~name:(Printf.sprintf "KMP baseline           n=%d" n)
            (Staged.stage (fun () -> ignore (Strmatch.kmp_find ~pattern:motif text)));
          Test.make
            ~name:(Printf.sprintf "naive scan             n=%d" n)
            (Staged.stage (fun () -> ignore (Strmatch.naive_find ~pattern:motif text)));
        ])
      lens
  in
  B.print_rows ~quota:0.25 tests

(* ------------------------------------------------------------- edit dist *)

let edit_distance_bench () =
  B.section "E1b — Example 8 head-to-head: FSA acceptance vs banded DP";
  let k = 2 in
  let fsa = Compile.compile dna ~vars:[ "x"; "y" ] (Combinators.edit_distance_le "x" "y" k) in
  let lens = if quick then [ 8 ] else [ 8; 16; 32 ] in
  let g = Prng.create 31 in
  let tests =
    List.concat_map
      (fun n ->
        let u = Prng.string g dna n in
        let v = Workload.mutate (Prng.copy g) dna ~edits:2 u in
        [
          Test.make
            ~name:(Printf.sprintf "alignment-calculus FSA n=%d" n)
            (Staged.stage (fun () -> ignore (Run.accepts fsa [ u; v ])));
          Test.make
            ~name:(Printf.sprintf "banded DP baseline     n=%d" n)
            (Staged.stage (fun () -> ignore (Edit_distance.within u v k)));
        ])
      lens
  in
  B.print_rows ~quota:0.25 tests

(* -------------------------------------------------------------------- S1 *)

(* The factor-indexed store: σ_A selections compiled into q-gram index
   probes (lib/store) instead of per-row automaton scans.  Three
   workloads on synthetic DNA databases:

   - Q7 (occurs-in): planted-motif databases, the necessary-factor path
     through Eval — scan vs probe on identical queries;
   - Q8 (edit-distance neighbourhood): the q-gram-lemma threshold probe
     (candidates_atleast) against the specialized 1-tape automaton,
     measured at the Store layer;
   - a selectivity sweep: the Q7 speedup as the planted hit rate grows.

   Both paths must return identical answers; each row reports the
   candidate-set size and verification ratio next to the times. *)
let index_bench () =
  B.section "S1 — factor-indexed store: σ-index probes vs per-row scans";
  let motif = "acgta" in
  let hit_rate = 0.005 in
  let len = if quick then 16 else 24 in
  let sizes = if quick then [ 2_000 ] else [ 100_000; 1_000_000 ] in
  let min_time = if quick then 0.05 else 0.3 in
  let any = "(a+c+g+t)*" in
  let q7 =
    Formula.And
      ( Formula.Rel ("seq", [ "x" ]),
        Formula.Str (Regex_embed.matches "x" (Regex.parse (any ^ motif ^ any)))
      )
  in
  let saved = Store.enabled () in
  Fun.protect ~finally:(fun () -> Store.set_enabled saved) @@ fun () ->
  (* --- Q7 through Eval: scan path vs index path ------------------- *)
  let q7_rows =
    List.map
      (fun n ->
        let db = Workload.planted_motif_db ~seed:101 ~n ~len ~motif ~hit_rate in
        let st, build = B.time_once (fun () -> Store.create dna db) in
        Store.set_enabled false;
        let scan_ans = Eval.run ~store:st dna db ~free:[ "x" ] q7 in
        let scan = B.time_per_run ~min_time (fun () ->
            ignore (Eval.run ~store:st dna db ~free:[ "x" ] q7)) in
        Store.set_enabled true;
        let index_ans = Eval.run ~store:st dna db ~free:[ "x" ] q7 in
        if index_ans <> scan_ans then
          failwith "index bench: Q7 answers differ between scan and probe";
        Store.reset_probe_stats st;
        ignore (Eval.run ~store:st dna db ~free:[ "x" ] q7);
        let stats = Store.probe_stats st in
        let index = B.time_per_run ~min_time (fun () ->
            ignore (Eval.run ~store:st dna db ~free:[ "x" ] q7)) in
        let answers =
          match scan_ans with Ok rows -> List.length rows | Error _ -> -1
        in
        Printf.printf
          "  Q7 n=%-8d build %7.1f ms  scan %9.2f ms  index %9.2f ms  \
           %6.1fx  verify %d/%d  answers %d\n%!"
          n (build *. 1e3) (scan *. 1e3) (index *. 1e3) (scan /. index)
          stats.Store.candidate_rows stats.Store.scanned_rows answers;
        (n, build, scan, index, stats, answers))
      sizes
  in
  (* --- Q8 at the Store layer: q-gram-lemma threshold probes -------- *)
  let q8_len = 12 in
  let q8_n = if quick then 2_000 else 100_000 in
  let g = Prng.create 103 in
  let u = Prng.string g dna q8_len in
  let q8_db =
    Database.of_list
      [
        ( "seq",
          List.init q8_n (fun i ->
              [
                (if i * (q8_n / 100) / q8_n < (i + 1) * (q8_n / 100) / q8_n
                 then Workload.mutate g dna ~edits:1 u
                 else Prng.string g dna q8_len);
              ]) );
      ]
  in
  let q8_st = Store.create dna q8_db in
  let q8_strings =
    List.map (function [ s ] -> s | _ -> assert false)
      (Database.find q8_db "seq")
  in
  let q8_rows =
    List.map
      (fun k ->
        let spec =
          Specialize.specialize
            (Compile.compile dna ~vars:[ "x"; "y" ]
               (Combinators.edit_distance_le "x" "y" k))
            [ u ]
        in
        let accepts s = Run.accepts spec [ s ] in
        let scan_ans = List.filter accepts q8_strings in
        let scan =
          B.time_per_run ~min_time (fun () ->
              ignore (List.filter accepts q8_strings))
        in
        let grams = Store.grams q8_st u in
        let thr = List.length grams - (k * Store.q q8_st) in
        let probe () =
          match
            Store.candidates_atleast q8_st ~rel:"seq" ~col:0 ~factors:grams
              ~min_hits:thr
          with
          | None -> List.filter accepts q8_strings
          | Some ids ->
              List.filter accepts
                (List.map
                   (function [ s ] -> s | _ -> assert false)
                   (Store.select q8_st ~rel:"seq" ~ids))
        in
        Store.reset_probe_stats q8_st;
        let index_ans = probe () in
        let stats = Store.probe_stats q8_st in
        if index_ans <> scan_ans then
          failwith "index bench: Q8 answers differ between scan and probe";
        let index = B.time_per_run ~min_time (fun () -> ignore (probe ())) in
        Printf.printf
          "  Q8 k=%d n=%-8d threshold %2d/%2d grams  scan %9.2f ms  index \
           %9.2f ms  %6.1fx  verify %d/%d  answers %d\n%!"
          k q8_n thr (List.length grams) (scan *. 1e3) (index *. 1e3)
          (scan /. index) stats.Store.candidate_rows stats.Store.scanned_rows
          (List.length scan_ans);
        (k, thr, List.length grams, scan, index, stats, List.length scan_ans))
      [ 1; 2 ]
  in
  (* --- selectivity sweep: Q7 speedup vs planted hit rate ----------- *)
  let sweep_n = if quick then 2_000 else 100_000 in
  let sweep_rates =
    if quick then [ 0.01; 0.2 ] else [ 0.0001; 0.001; 0.01; 0.05; 0.2 ]
  in
  let sweep_rows =
    List.map
      (fun rate ->
        let db =
          Workload.planted_motif_db ~seed:107 ~n:sweep_n ~len:20 ~motif
            ~hit_rate:rate
        in
        let st = Store.create dna db in
        Store.set_enabled false;
        let scan_ans = Eval.run ~store:st dna db ~free:[ "x" ] q7 in
        let scan = B.time_per_run ~min_time (fun () ->
            ignore (Eval.run ~store:st dna db ~free:[ "x" ] q7)) in
        Store.set_enabled true;
        let index_ans = Eval.run ~store:st dna db ~free:[ "x" ] q7 in
        if index_ans <> scan_ans then
          failwith "index bench: sweep answers differ between scan and probe";
        Store.reset_probe_stats st;
        ignore (Eval.run ~store:st dna db ~free:[ "x" ] q7);
        let stats = Store.probe_stats st in
        let index = B.time_per_run ~min_time (fun () ->
            ignore (Eval.run ~store:st dna db ~free:[ "x" ] q7)) in
        Printf.printf
          "  sweep rate=%-7g scan %9.2f ms  index %9.2f ms  %6.1fx  verify \
           %d/%d\n%!"
          rate (scan *. 1e3) (index *. 1e3) (scan /. index)
          stats.Store.candidate_rows stats.Store.scanned_rows;
        (rate, scan, index, stats))
      sweep_rates
  in
  (* --- JSON -------------------------------------------------------- *)
  let path = json_path "BENCH_index.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"index\",\n";
  Printf.fprintf oc "  \"mode\": %S,\n" (if quick then "quick" else "full");
  Printf.fprintf oc "  \"q\": %d,\n" (Store.q q8_st);
  Printf.fprintf oc "  \"motif\": %S,\n" motif;
  Printf.fprintf oc "  \"q7\": [\n";
  List.iteri
    (fun i (n, build, scan, index, stats, answers) ->
      Printf.fprintf oc
        "    {\"n\": %d, \"hit_rate\": %g, \"len\": %d, \"build_ms\": %.2f, \
         \"scan_ms\": %.2f, \"index_ms\": %.2f, \"speedup\": %.2f, \
         \"answers\": %d, %s}%s\n"
        n hit_rate len (build *. 1e3) (scan *. 1e3) (index *. 1e3)
        (scan /. index) answers
        (B.probe_json ~candidates:stats.Store.candidate_rows
           ~total:stats.Store.scanned_rows)
        (if i = List.length q7_rows - 1 then "" else ","))
    q7_rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"q8\": [\n";
  List.iteri
    (fun i (k, thr, grams, scan, index, stats, answers) ->
      Printf.fprintf oc
        "    {\"k\": %d, \"n\": %d, \"len\": %d, \"threshold\": %d, \
         \"pattern_grams\": %d, \"scan_ms\": %.2f, \"index_ms\": %.2f, \
         \"speedup\": %.2f, \"answers\": %d, %s}%s\n"
        k q8_n q8_len thr grams (scan *. 1e3) (index *. 1e3) (scan /. index)
        answers
        (B.probe_json ~candidates:stats.Store.candidate_rows
           ~total:stats.Store.scanned_rows)
        (if i = List.length q8_rows - 1 then "" else ","))
    q8_rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"selectivity\": [\n";
  List.iteri
    (fun i (rate, scan, index, stats) ->
      Printf.fprintf oc
        "    {\"n\": %d, \"hit_rate\": %g, \"scan_ms\": %.2f, \"index_ms\": \
         %.2f, \"speedup\": %.2f, %s}%s\n"
        sweep_n rate (scan *. 1e3) (index *. 1e3) (scan /. index)
        (B.probe_json ~candidates:stats.Store.candidate_rows
           ~total:stats.Store.scanned_rows)
        (if i = List.length sweep_rows - 1 then "" else ","))
    sweep_rows;
  Printf.fprintf oc "  ]\n";
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "  wrote %s\n%!" path

let only_runtime = Array.exists (fun a -> a = "runtime") Sys.argv
let only_fusion = Array.exists (fun a -> a = "fusion") Sys.argv
let only_index = Array.exists (fun a -> a = "index") Sys.argv

let () =
  if only_runtime then begin
    Printf.printf "strdb benchmark harness — runtime section only (%s mode)\n"
      (if quick then "quick" else "full");
    runtime_bench ();
    exit 0
  end;
  if only_fusion then begin
    Printf.printf "strdb benchmark harness — fusion section only (%s mode)\n"
      (if quick then "quick" else "full");
    fusion_bench ();
    exit 0
  end;
  if only_index then begin
    Printf.printf "strdb benchmark harness — index section only (%s mode)\n"
      (if quick then "quick" else "full");
    index_bench ();
    exit 0
  end;
  Printf.printf "strdb benchmark harness — %s mode\n"
    (if quick then "quick" else "full");
  fig12 ();
  fig6 ();
  example_queries ();
  compilation ();
  acceptance_scaling ();
  substring_bench ();
  edit_distance_bench ();
  specialization ();
  regex_membership ();
  limitation_analysis ();
  query_scaling ();
  sat_bench ();
  strategy_ablation ();
  grammar_bench ();
  lba_bench ();
  runtime_bench ();
  fusion_bench ();
  index_bench ();
  Printf.printf "\nall experiment sections completed.\n"
