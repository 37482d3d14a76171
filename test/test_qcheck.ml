(* Property-based tests (qcheck, registered as alcotest cases).

   These complement the seeded exhaustive suites: QCheck shrinks
   counterexamples, so invariant violations come back minimal. *)
open Strdb

let b = Alphabet.binary

(* --- generators ----------------------------------------------------------- *)

let gen_char = QCheck.Gen.oneofl [ 'a'; 'b' ]
let gen_string = QCheck.Gen.(string_size ~gen:gen_char (int_bound 6))

let arb_string =
  QCheck.make ~print:(Printf.sprintf "%S") gen_string

let arb_string_pair =
  QCheck.make
    ~print:(fun (u, v) -> Printf.sprintf "(%S, %S)" u v)
    QCheck.Gen.(pair gen_string gen_string)

let gen_window vars =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let base =
        oneof
          [
            return Window.True;
            map (fun v -> Window.Is_empty v) (oneofl vars);
            map2 (fun v c -> Window.Is_char (v, c)) (oneofl vars) gen_char;
            map2 (fun v u -> Window.Eq (v, u)) (oneofl vars) (oneofl vars);
          ]
      in
      if n <= 0 then base
      else
        frequency
          [
            (3, base);
            (1, map2 (fun a b -> Window.And (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Window.Or (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map (fun a -> Window.Not a) (self (n / 2)));
          ])

let gen_sformula ?(allow_right = true) vars =
  let open QCheck.Gen in
  let subset =
    oneofl vars >>= fun v ->
    map
      (fun mask ->
        let chosen = List.filteri (fun i _ -> (mask lsr i) land 1 = 1) vars in
        if chosen = [] then [ v ] else chosen)
      (int_bound ((1 lsl List.length vars) - 1))
  in
  let atomic =
    subset >>= fun vs ->
    gen_window vars >>= fun w ->
    if allow_right then
      map (fun r -> if r then Sformula.right vs w else Sformula.left vs w) bool
    else return (Sformula.left vs w)
  in
  sized @@ fix (fun self n ->
      if n <= 0 then atomic
      else
        frequency
          [
            (3, atomic);
            (1, return Sformula.Lambda);
            (2, map2 (fun a c -> Sformula.Concat (a, c)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a c -> Sformula.Union (a, c)) (self (n / 2)) (self (n / 2)));
            (1, map (fun a -> Sformula.Star a) (self (n / 2)));
          ])

let arb_sformula ?allow_right vars =
  QCheck.make ~print:Sformula.to_string
    (QCheck.Gen.map (fun f -> f) (gen_sformula ?allow_right vars))

(* A deterministic generator seed (QCHECK_SEED overrides).  The pipeline
   props evaluate whatever generation bound the Theorem 5.2 analysis
   certifies; a rare random formula certifies a quadratic bound whose
   Σ^≤W enumeration is astronomically large, so an unpinned seed makes
   the suite flaky-slow rather than flaky-wrong.  A pinned seed keeps
   runs reproducible; bump it deliberately to rotate the cases. *)
let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 1729

let prop ?(count = 100) name arb f =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed; Hashtbl.hash name |])
    (QCheck.Test.make ~count ~name arb f)

(* [prop], for a property that only means something on some cases: [f]
   gets a [witness] callback to call with the kind of each such case,
   one of [whats], and the run fails when some kind was never
   witnessed, so the property cannot pass vacuously. *)
let prop_witnessed_all ?count ~whats name arb f =
  let seen = Hashtbl.create 4 in
  let name, speed, run =
    prop ?count name arb (f (fun what -> Hashtbl.replace seen what ()))
  in
  ( name,
    speed,
    fun () ->
      Hashtbl.reset seen;
      run ();
      List.iter
        (fun what ->
          if not (Hashtbl.mem seen what) then
            Alcotest.failf "no generated case %s" what)
        whats )

let prop_witnessed ?count ~what name arb f =
  prop_witnessed_all ?count ~whats:[ what ] name arb (fun witness ->
      f (fun () -> witness what))

(* --- properties ------------------------------------------------------------ *)

let compile_props =
  [
    prop ~count:80 "Theorem 3.1: compiled FSA ≡ naive semantics"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        Run.accepts fsa [ u; v ] = Naive.holds phi [ ("x", u); ("y", v) ]);
    prop ~count:80 "compiled FSAs are in normal form"
      (arb_sformula [ "x"; "y" ])
      (fun phi ->
        Limitation.normal_form_errors (Compile.compile b ~vars:[ "x"; "y" ] phi) = []);
    prop ~count:80 "property 1: tape directions mirror variable directions"
      (arb_sformula [ "x"; "y" ])
      (fun phi ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let bidi = Sformula.bidirectional_vars phi in
        List.for_all
          (fun (i, v) ->
            (not (Fsa.tape_bidirectional fsa i)) || List.mem v bidi)
          [ (0, "x"); (1, "y") ]);
    prop ~count:60 "star semantics: φ* accepts iff some finite power does"
      (QCheck.pair (arb_sformula ~allow_right:false [ "x" ]) arb_string)
      (fun (phi, u) ->
        let star = Compile.compile b ~vars:[ "x" ] (Sformula.Star phi) in
        let accepted = Run.accepts star [ u ] in
        let power_hits =
          List.exists
            (fun k ->
              Run.accepts (Compile.compile b ~vars:[ "x" ] (Sformula.power phi k)) [ u ])
            [ 0; 1; 2; 3 ]
        in
        (* powers up to 3 are a semidecision: they may miss, never lie *)
        (not power_hits) || accepted);
  ]

let run_props =
  [
    prop ~count:80 "BFS and DFS acceptance agree"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        Run.accepts fsa [ u; v ] = Run.accepts_dfs fsa [ u; v ]);
    prop ~count:60 "Lemma 3.1: specialisation preserves sections"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let spec = Specialize.specialize fsa [ u ] in
        Run.accepts spec [ v ] = Run.accepts fsa [ u; v ]);
  ]

(* A few strings to decide, ε always among them. *)
let arb_strings =
  QCheck.make
    ~print:(fun ws -> String.concat ", " (List.map (Printf.sprintf "%S") ws))
    QCheck.Gen.(map (fun ws -> "" :: ws) (list_size (int_bound 6) gen_string))

let agrees_naive fsa ws =
  List.for_all (fun w -> Run.accepts fsa [ w ] = Run.accepts_naive fsa [ w ]) ws

(* k strings of pairwise different lengths — ε, then 1–3, then 4–6
   letters — in every rotation: the frontier kernel implies the longest
   tape's head position, so each tape takes that role, and ε, in turn. *)
let arb_rotations k =
  let rotate ws r = List.filteri (fun i _ -> i >= r) ws @ List.filteri (fun i _ -> i < r) ws in
  let show ws = String.concat ", " (List.map (Printf.sprintf "%S") ws) in
  QCheck.make
    ~print:(fun tups -> String.concat " | " (List.map show tups))
    QCheck.Gen.(
      map
        (fun ws -> List.init k (rotate ws))
        (flatten_l
           (List.init k (fun i ->
                string_size ~gen:gen_char (int_range (max 0 ((3 * i) - 2)) (3 * i))))))

let frontier_agrees vars (phi, tups) =
  let fsa = Compile.compile b ~vars phi in
  List.for_all (fun ws -> Run.accepts fsa ws = Run.accepts_naive fsa ws) tups

let runtime_props =
  [
    prop ~count:100 "runtime accepts ≡ naive accepts"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        Run.accepts fsa [ u; v ] = Run.accepts_naive fsa [ u; v ]);
    (* One-tape automata run the DFA kernel when they are one-way; the
       configuration search shares no code with Dfa, so it is the
       oracle.  Random formulae, fused products and Lemma 3.1
       specialisations (stay moves and ⊢/⊣ halts) feed the Theorem 6.1
       construction different shapes. *)
    prop ~count:100 "one-tape runtime accepts ≡ naive accepts"
      (QCheck.pair (arb_sformula ~allow_right:false [ "x" ]) arb_strings)
      (fun (phi, ws) ->
        let fsa = Compile.compile b ~vars:[ "x" ] phi in
        agrees_naive fsa ws);
    prop_witnessed ~count:60 ~what:"was fused"
      "one-tape fused product accepts ≡ naive accepts"
      (QCheck.triple
         (arb_sformula ~allow_right:false [ "x" ])
         (arb_sformula ~allow_right:false [ "x" ])
         arb_strings)
      (fun fused (phi, psi, ws) ->
        let c f = (Compile.compile b ~vars:[ "x" ] f, [ "x" ]) in
        let pa = c phi and pb = c psi in
        let was = Product.enabled () in
        Fun.protect ~finally:(fun () -> Product.set_enabled was) @@ fun () ->
        Product.set_enabled true;
        (* a pair's first request only records it; the second builds *)
        ignore (Product.fuse pa pb);
        match Product.fuse pa pb with
        | None -> true (* budget blowout: nothing to compare *)
        | Some (p, _) ->
            fused ();
            agrees_naive p ws);
    prop ~count:60 "specialised one-tape accepts ≡ naive accepts"
      (QCheck.triple (arb_sformula [ "x"; "y" ]) arb_string arb_strings)
      (fun (phi, u, ws) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        agrees_naive (Specialize.specialize fsa [ u ]) ws);
    (* Multi-tape one-way automata run the frontier kernel. *)
    prop ~count:100 "two-tape one-way accepts ≡ naive accepts"
      (QCheck.pair (arb_sformula ~allow_right:false [ "x"; "y" ]) (arb_rotations 2))
      (frontier_agrees [ "x"; "y" ]);
    prop ~count:60 "three-tape one-way accepts ≡ naive accepts"
      (QCheck.pair (arb_sformula ~allow_right:false [ "x"; "y"; "z" ]) (arb_rotations 3))
      (frontier_agrees [ "x"; "y"; "z" ]);
    prop ~count:60 "runtime enumerator ≡ naive enumerator"
      (arb_sformula [ "x"; "y" ])
      (fun phi ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        Generate.accepted_fast fsa ~max_len:2 = Generate.accepted_naive fsa ~max_len:2);
    prop ~count:40 "runtime enumerator ≡ naive enumerator on three tapes"
      (arb_sformula [ "x"; "y"; "z" ])
      (fun phi ->
        let fsa = Compile.compile b ~vars:[ "x"; "y"; "z" ] phi in
        Generate.accepted_fast fsa ~max_len:2 = Generate.accepted_naive fsa ~max_len:2);
    (* The whole pipeline against the calculus semantics: every string
       atom of [Formula.answers] and [Formula.eval] is decided by
       [Naive.holds], which shares no code with the engine.  The
       reference ranges over Σ^≤3 and the pipeline over Σ*, so they are
       compared on the rows that fit the cutoff. *)
    prop_witnessed ~count:100 ~what:"with a generated x column and a row"
      "Query pipeline agrees with the naive semantics"
      (arb_sformula [ "u"; "x" ])
      (fun generated s ->
        let db = Workload.pair_db b ~seed:7 ~name:"pair" ~n:3 ~len:2 in
        let phi = Formula.And (Formula.Rel ("pair", [ "u"; "v" ]), Formula.Str s) in
        let free = Formula.free_vars phi in
        match Eval.run b db ~free phi with
        | Error _ -> true
        | Ok rows ->
            if List.mem "x" free && rows <> [] then generated ();
            let short = List.filter (List.for_all (fun w -> String.length w <= 3)) rows in
            short = Formula.answers b db ~max_len:3 ~free phi
            && List.for_all
                 (fun row -> Formula.eval b db ~max_len:3 (List.combine free row) phi)
                 rows);
  ]

(* A generator row: a formula over x, y, z with its first [bound]
   tapes fixed to random strings.  Right windows are kept only where the
   compiled automaton stays right-restricted, the decidable subclass
   generators are certified over. *)
let arb_gen_row ~allow_right ~bound =
  QCheck.make
    ~print:(fun (phi, ins) ->
      Printf.sprintf "%s on %s" (Sformula.to_string phi)
        (String.concat ", " (List.map (Printf.sprintf "%S") ins)))
    QCheck.Gen.(
      pair (gen_sformula ~allow_right [ "x"; "y"; "z" ]) (list_repeat bound gen_string))

let generate_props =
  let vars = [ "x"; "y"; "z" ] in
  let agrees ~allow_right ~bound ~what name =
    prop_witnessed ~count:60 ~what name (arb_gen_row ~allow_right ~bound)
      (fun witness (phi, ins) ->
        let fsa = Compile.compile b ~vars phi in
        QCheck.assume (Fsa.is_right_restricted fsa);
        (* Two output tapes enumerate Σ^≤2 each; one enumerates Σ^≤3. *)
        let max_len = if bound = 1 then 2 else 3 in
        let got = Generate.outputs fsa ~inputs:ins ~max_len in
        if got <> [] then witness ();
        got = Generate.accepted_naive (Specialize.specialize fsa ins) ~max_len)
  in
  [
    agrees ~allow_right:false ~bound:1 ~what:"with an answer on two output tapes"
      "one-way, one bound tape: outputs ≡ naive on the specialisation";
    agrees ~allow_right:false ~bound:2 ~what:"with an answer"
      "one-way, two bound tapes: outputs ≡ naive on the specialisation";
    agrees ~allow_right:true ~bound:1 ~what:"with an answer on two output tapes"
      "right-restricted, one bound tape: outputs ≡ naive on the specialisation";
    agrees ~allow_right:true ~bound:2 ~what:"with an answer"
      "right-restricted, two bound tapes: outputs ≡ naive on the specialisation";
  ]

let parallel_props =
  [
    prop ~count:40 "parallel evaluation ≡ sequential evaluation"
      (arb_sformula [ "u"; "v" ])
      (fun s ->
        (* Both variables are bound by the join, so the Str conjunct runs
           as a batch σ_A filter — the path ~domains parallelises.  (A
           free variable would take the generator path, where a rare
           random formula certifies an astronomically large enumeration
           bound; the generator pipeline is covered deterministically in
           eval/queries tests and by the STRDB_DOMAINS=4 CI battery.) *)
        let db = Workload.pair_db b ~seed:13 ~name:"pair" ~n:5 ~len:2 in
        let phi = Formula.And (Formula.Rel ("pair", [ "u"; "v" ]), Formula.Str s) in
        let free = Formula.free_vars phi in
        Eval.run ~domains:1 b db ~free phi = Eval.run ~domains:4 b db ~free phi);
    prop ~count:20 "parallel batch acceptance ≡ per-tuple acceptance"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) (QCheck.list_of_size (QCheck.Gen.int_bound 12) arb_string_pair))
      (fun (phi, pairs) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let tuples = List.map (fun (u, v) -> [ u; v ]) pairs in
        Array.to_list (Run.accepts_batch ~pool:(Pool.get 4) fsa tuples)
        = List.map (Run.accepts fsa) tuples);
  ]

let baseline_props =
  [
    prop "edit distance is a metric (symmetry)" arb_string_pair (fun (u, v) ->
        Edit_distance.distance u v = Edit_distance.distance v u);
    prop "edit distance triangle inequality"
      (QCheck.pair arb_string_pair arb_string)
      (fun ((u, v), w) ->
        Edit_distance.distance u v
        <= Edit_distance.distance u w + Edit_distance.distance w v);
    prop "edit distance bounded by length difference below"
      arb_string_pair
      (fun (u, v) ->
        Edit_distance.distance u v >= abs (String.length u - String.length v));
    prop "KMP finds what naive search finds" arb_string_pair (fun (p, t) ->
        Strmatch.kmp_find ~pattern:p t = Strmatch.naive_find ~pattern:p t);
    prop "shuffle DP agrees with direct enumeration"
      (QCheck.pair arb_string_pair arb_string)
      (fun ((u, v), w) ->
        Strutil.is_shuffle w u v = List.mem w (Strutil.shuffles u v));
  ]

let alignment_props =
  [
    prop "left then right transpose is the identity away from the ends"
      arb_string
      (fun w ->
        QCheck.assume (w <> "");
        let a = Alignment.initial [ ("x", w) ] in
        let l = { Sformula.tvars = [ "x" ]; dir = Sformula.Left } in
        let r = { Sformula.tvars = [ "x" ]; dir = Sformula.Right } in
        let a' = Alignment.transpose (Alignment.transpose a l) r in
        Alignment.equal a a');
    prop "window is always the symbol at the offset" arb_string (fun w ->
        let a = Alignment.initial [ ("x", w) ] in
        let row = Alignment.row a "x" in
        Symbol.equal (Alignment.window a "x")
          (Symbol.of_tape row.Alignment.content row.Alignment.offset));
    prop ~count:60 "naive semantics is invariant under binding order"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        Naive.holds phi [ ("x", u); ("y", v) ]
        = Naive.holds phi [ ("y", v); ("x", u) ]);
  ]

let truncation_props =
  [
    prop ~count:40 "pure-formula answers are monotone in the cutoff"
      (arb_sformula ~allow_right:false [ "x" ])
      (fun phi ->
        let tuples l = Naive.tuples b ~vars:[ "x" ] ~max_len:l phi in
        let t1 = tuples 1 and t2 = tuples 2 in
        List.for_all (fun t -> List.mem t t2) t1);
    prop ~count:40 "generator output equals filtered enumeration"
      (arb_sformula [ "x" ])
      (fun phi ->
        let fsa = Compile.compile b ~vars:[ "x" ] phi in
        let gen = Generate.accepted fsa ~max_len:2 in
        let brute =
          List.filter
            (fun w -> Run.accepts fsa [ w ])
            (Strutil.all_strings_upto b 2)
          |> List.map (fun w -> [ w ])
          |> List.sort compare
        in
        gen = brute);
  ]

(* A one-column relation over the binary or DNA alphabet (0–300 rows
   of length 0–12, q from 1 to 4) and probes of it: factor lists with
   short factors, substrings of stored rows and foreign characters,
   each with a hit threshold.  One character of the alphabet is rare:
   at most 12 rows may hold it, so grams holding it fall below the
   store's 1/32 density threshold on a large relation, while grams of
   the common characters lie above it. *)
let arb_store_case =
  let open QCheck.Gen in
  let gen =
    oneofl [ Alphabet.binary; Alphabet.dna ] >>= fun sigma ->
    int_range 1 4 >>= fun q ->
    let chars = Alphabet.chars sigma in
    oneofl chars >>= fun rare ->
    let common = List.filter (( <> ) rare) chars in
    let row cs = string_size ~gen:(oneofl cs) (int_bound 12) in
    int_bound 300 >>= fun n ->
    int_bound (min n 12) >>= fun r ->
    list_repeat (n - r) (row common) >>= fun plain ->
    list_repeat r (row chars) >>= fun marked ->
    let rows = plain @ marked in
    let substring rows =
      oneofl rows >>= fun s ->
      int_bound (String.length s) >>= fun i ->
      int_bound (String.length s - i) >>= fun l -> return (String.sub s i l)
    in
    let short = string_size ~gen:(oneofl chars) (int_bound 3) in
    let factor =
      frequency
        ([
           (4, string_size ~gen:(oneofl chars) (int_bound 6));
           (1, map2 (fun a b -> a ^ "z" ^ b) short short);
         ]
        @ (if rows = [] then [] else [ (3, substring rows) ])
        @ if marked = [] then [] else [ (3, substring marked) ])
    in
    list_size (int_range 1 6)
      (pair (list_size (int_bound 4) factor) (int_range (-1) 4))
    >>= fun probes -> return (sigma, q, rows, probes)
  in
  QCheck.make gen ~print:(fun (sigma, q, rows, probes) ->
      Printf.sprintf "Σ=%s q=%d rows=[%s] probes=[%s]"
        (String.of_seq (List.to_seq (Alphabet.chars sigma)))
        q
        (String.concat ";" rows)
        (String.concat "; "
           (List.map
              (fun (fs, h) -> Printf.sprintf "{%s}≥%d" (String.concat "," fs) h)
              probes)))

(* Random unidirectional one-variable formulae, half of them of the
   shape φ·w·ψ around a literal w of length 2–5, so that some grams are
   necessary. *)
let arb_infix_sformula =
  let open QCheck.Gen in
  let phi = gen_sformula ~allow_right:false [ "x" ] in
  let read c = Sformula.left [ "x" ] (Window.Is_char ("x", c)) in
  let literal w =
    String.fold_left
      (fun acc c -> Sformula.Concat (acc, read c))
      (read w.[0])
      (String.sub w 1 (String.length w - 1))
  in
  QCheck.make ~print:Sformula.to_string
    (frequency
       [
         (1, phi);
         ( 1,
           map3
             (fun a w c -> Sformula.Concat (a, Sformula.Concat (literal w, c)))
             phi
             (string_size ~gen:gen_char (int_range 2 5))
             phi );
       ])

let store_props =
  (* One fixed binary-alphabet relation (lengths 0–6, so some rows have
     q-grams and some don't) probed by random unidirectional one-variable
     patterns: the σ-index pruned pipeline must agree with the plain
     scan pipeline whichever way the STRDB_INDEX toggle points. *)
  let db =
    let g = Prng.create 1729 in
    Database.of_list
      [ ("r", List.init 24 (fun _ -> [ Prng.string_upto g b 6 ])) ]
  in
  let st = Store.create b db in
  [
    prop ~count:60 "σ-index pruned filter ≡ full scan"
      (arb_sformula ~allow_right:false [ "x" ])
      (fun s ->
        let phi = Formula.And (Formula.Rel ("r", [ "x" ]), Formula.Str s) in
        let free = [ "x" ] in
        let saved = Store.enabled () in
        Fun.protect
          ~finally:(fun () -> Store.set_enabled saved)
          (fun () ->
            let plain = Eval.run b db ~free phi in
            Store.set_enabled true;
            let indexed = Eval.run ~store:st b db ~free phi in
            Store.set_enabled false;
            let toggled = Eval.run ~store:st b db ~free phi in
            indexed = plain && toggled = plain));
    (* Both probes against brute-force containment (Strmatch): a row
       contains the factors when it contains each of their q-windows,
       and meets a threshold when it contains enough distinct
       exact-length factors. *)
    prop_witnessed ~count:300
      ~what:"intersecting a row bitmap with a non-empty id list"
      "candidates and candidates_atleast ≡ brute-force containment"
      arb_store_case (fun mixed (sigma, q, rows, probes) ->
        let db = Database.add Database.empty "r" ~arity:1 (List.map (fun s -> [ s ]) rows) in
        let st = Store.create ~q sigma db in
        let stored = List.map (function [ s ] -> s | _ -> assert false) (Database.find db "r") in
        let ids p =
          List.concat (List.mapi (fun i s -> if p s then [ i ] else []) stored)
        in
        let occurs s g = Strmatch.occurs ~pattern:g s in
        let windows f = List.init (max 0 (String.length f - q + 1)) (fun i -> String.sub f i q) in
        (* the store's density rule, for the witness *)
        let words = (List.length stored + 31) / 32 in
        let card g = List.length (List.filter (fun s -> occurs s g) stored) in
        let all_of fs =
          if List.exists (fun f -> not (Alphabet.contains_string sigma f)) fs then Some []
          else
            match List.concat_map windows fs with
            | [] -> None
            | gs ->
                let cards = List.map card gs in
                if List.exists (fun c -> c > 0 && c >= words) cards
                   && List.exists (fun c -> c > 0 && c < words) cards
                then mixed ();
                Some (ids (fun s -> List.for_all (occurs s) gs))
        in
        let at_least fs min_hits =
          if min_hits <= 0 then None
          else
            let gs =
              List.sort_uniq compare
                (List.filter
                   (fun f -> String.length f = q && Alphabet.contains_string sigma f)
                   fs)
            in
            if List.length gs < min_hits then Some []
            else
              Some
                (ids (fun s ->
                     List.length (List.filter (occurs s) gs) >= min_hits))
        in
        let got o = Option.map Array.to_list o in
        List.for_all
          (fun (fs, min_hits) ->
            got (Store.candidates st ~rel:"r" ~col:0 ~factors:fs) = all_of fs
            && got (Store.candidates_atleast st ~rel:"r" ~col:0 ~factors:fs ~min_hits)
               = at_least fs min_hits)
          probes);
    (* The witness bound drops only grams one accepting path of the
       graph avoids, so it must keep exactly the grams the sweep keeps,
       on the compiled automaton and on the optimized one. *)
    prop_witnessed_all ~count:300
      ~whats:
        [ "accepting λ"; "with no path to a final state"; "with a necessary gram" ]
      "witness-bounded Factors.necessary ≡ the is_necessary sweep over Σ^q"
      (QCheck.pair arb_infix_sformula
         (QCheck.make ~print:string_of_int (QCheck.Gen.oneofl [ 2; 3 ])))
      (fun witness (s, q) ->
        let fsa = Compile.compile b ~vars:[ "x" ] s in
        if Run.accepts fsa [ "" ] then witness "accepting λ";
        if not (Fsa.useful_states fsa).(fsa.Fsa.start) then
          witness "with no path to a final state";
        if Factors.necessary ~q fsa <> Factors.Top then
          witness "with a necessary gram";
        let rec all q =
          if q = 0 then [ "" ]
          else List.concat_map (fun c -> List.map (fun g -> String.make 1 c ^ g) (all (q - 1))) [ 'a'; 'b' ]
        in
        List.for_all
          (fun a ->
            let sweep = List.filter (Factors.is_necessary ~q a) (all q) in
            Factors.necessary ~q a
            = if sweep = [] then Factors.Top else Factors.Factors sweep)
          [ fsa; Optimize.optimized fsa ]);
  ]

(* Random relations of arity 0–2 (possibly empty) and an empty one of
   the same arity, probed with every stored tuple and with random
   tuples, most of them absent. *)
let arb_relation_probes =
  let open QCheck.Gen in
  let short = string_size ~gen:gen_char (int_bound 2) in
  QCheck.make
    ~print:(fun (_, tuples, probes) ->
      let show ts = String.concat " " (List.map (Strdb_util.Pretty.to_string Strdb_util.Pretty.tuple) ts) in
      Printf.sprintf "relation: %s; probes: %s" (show tuples) (show probes))
    ( int_bound 2 >>= fun arity ->
      triple (return arity)
        (list_size (int_bound 6) (list_repeat arity short))
        (list_size (int_bound 4) (list_repeat arity short)) )

let database_props =
  [
    prop_witnessed ~what:"probing a non-empty relation for an absent tuple"
      "Database.mem ≡ List.mem over Database.find" arb_relation_probes
      (fun absent (arity, tuples, probes) ->
        let db = Database.add (Database.add Database.empty "r" ~arity tuples) "e" ~arity [] in
        let stored = Database.find db "r" in
        List.for_all
          (fun t ->
            let expected = List.mem t stored in
            if (not expected) && stored <> [] then absent ();
            Database.mem db "r" t = expected && not (Database.mem db "e" t))
          (stored @ probes));
  ]

let parser_props =
  [
    prop ~count:80 "printer/parser round trip preserves semantics"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let phi' = Sparser.sformula_roundtrip phi in
        Naive.holds phi [ ("x", u); ("y", v) ]
        = Naive.holds phi' [ ("x", u); ("y", v) ]);
  ]

let suites =
  [
    ("qcheck.compile", compile_props);
    ("qcheck.run", run_props);
    ("qcheck.runtime", runtime_props);
    ("qcheck.generate", generate_props);
    ("qcheck.parallel", parallel_props);
    ("qcheck.baselines", baseline_props);
    ("qcheck.alignment", alignment_props);
    ("qcheck.truncation", truncation_props);
    ("qcheck.store", store_props);
    ("qcheck.database", database_props);
    ("qcheck.parser", parser_props);
  ]
