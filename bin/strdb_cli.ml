(* strdb command-line tool: exercise the library from the shell.

   Subcommands:
     match    — classical regex matching through the Theorem 6.1 embedding
     editdist — Example 8: edit-distance check via the compiled 2-FSA
     sat      — Theorem 6.5: DIMACS-ish CNF solved as a string query
     limits   — Theorem 5.2: limitation analysis of a named combinator
     query    — parse and evaluate a full alignment-calculus query
     serve    — answer queries over a Unix socket with a shared plan cache
     client   — send one protocol line to a running server
     align    — print Fig. 1-style alignments of the given strings *)

open Strdb
open Cmdliner

let alphabet_conv =
  let parse s =
    try Ok (Alphabet.of_string s)
    with Alphabet.Invalid_alphabet m -> Error (`Msg m)
  in
  let print ppf a = Alphabet.pp ppf a in
  Arg.conv (parse, print)

let sigma_arg =
  Arg.(
    value
    & opt alphabet_conv Alphabet.dna
    & info [ "a"; "alphabet" ] ~docv:"CHARS" ~doc:"The fixed alphabet Σ.")

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_domains ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluate on $(docv) domains (parallel batch acceptance and \
           generator expansion).  Defaults to \\$STRDB_DOMAINS, else 1.")

(* Bad input must come back as a one-line diagnostic and exit code 1,
   never a raw backtrace: strings outside Σ raise Invalid_alphabet (or
   Invalid_argument via Run.check_input), hand-built automata raise
   Fsa.Ill_formed, int parsing raises Failure. *)
let guard f =
  try f () with
  | Invalid_argument m
  | Failure m
  | Alphabet.Invalid_alphabet m
  | Fsa.Ill_formed m
  | Sparser.Parse_error m
  | Database.Schema_error m ->
      Printf.eprintf "strdb: error: %s\n" m;
      1
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "strdb: error: %s: %s%s\n" fn (Unix.error_message e)
        (if arg = "" then "" else " (" ^ arg ^ ")");
      1

(* --- match --------------------------------------------------------------- *)

let match_cmd =
  let regex =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REGEX")
  in
  let strings = Arg.(value & pos_right 0 string [] & info [] ~docv:"STRING") in
  let run sigma jobs src strings =
    match Regex.parse src with
    | exception Failure m ->
        prerr_endline m;
        1
    | r ->
        guard (fun () ->
            let fsa =
              Compile.compile sigma ~vars:[ "x" ] (Regex_embed.matches "x" r)
            in
            Printf.printf "compiled %d-state FSA from %s\n" fsa.Fsa.num_states src;
            let verdicts =
              Run.accepts_batch ~pool:(Pool.get jobs) fsa
                (List.map (fun w -> [ w ]) strings)
            in
            List.iteri
              (fun i w ->
                Printf.printf "%-20s %s\n" w
                  (if verdicts.(i) then "match" else "no match"))
              strings;
            0)
  in
  Cmd.v
    (Cmd.info "match" ~doc:"Regex matching via alignment calculus (Theorem 6.1).")
    Term.(const run $ sigma_arg $ jobs_arg $ regex $ strings)

(* --- editdist ------------------------------------------------------------ *)

let editdist_cmd =
  let k =
    Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Distance bound.")
  in
  let u = Arg.(required & pos 0 (some string) None & info [] ~docv:"U") in
  let v = Arg.(required & pos 1 (some string) None & info [] ~docv:"V") in
  let run sigma k u v =
    guard (fun () ->
        let fsa =
          Compile.compile sigma ~vars:[ "x"; "y" ]
            (Combinators.edit_distance_le "x" "y" k)
        in
        let via = Run.accepts fsa [ u; v ] in
        let d = Edit_distance.distance u v in
        Printf.printf "FSA says distance(%s,%s) <= %d: %b; DP distance = %d\n" u v
          k via d;
        if via = (d <= k) then 0 else 1)
  in
  Cmd.v
    (Cmd.info "editdist" ~doc:"Example 8: edit distance through a 2-FSA.")
    Term.(const run $ sigma_arg $ k $ u $ v)

(* --- sat ------------------------------------------------------------------ *)

let sat_cmd =
  let clauses =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CLAUSE"
          ~doc:"Clauses as comma-separated literals, e.g. 1,-2,3.")
  in
  let run clauses =
    guard (fun () ->
    let cnf =
      List.map
        (fun c ->
          List.map
            (fun l ->
              match int_of_string_opt (String.trim l) with
              | Some n when n <> 0 -> n
              | _ -> failwith (Printf.sprintf "bad literal %S in clause %S" l c))
            (String.split_on_char ',' c))
        clauses
    in
    let nvars =
      List.fold_left (fun m c -> List.fold_left (fun m l -> max m (abs l)) m c) 1 cnf
    in
    let via = Qbf.sat_via_strings ~nvars cnf in
    Printf.printf "SAT via alignment calculus: %b (DPLL agrees: %b)\n" via
      (Dpll.satisfiable cnf = via);
    if via then begin
      let enc = Qbf.encode ~nvars cnf in
      let fsa =
        Compile.compile Qbf.sigma ~vars:[ "x"; "y" ] (Qbf.check_formula ~x:"x" ~y:"y")
      in
      match Generate.outputs fsa ~inputs:[ enc ] ~max_len:nvars with
      | [ w ] :: _ -> Printf.printf "witness assignment: %s\n" w
      | _ -> ()
    end;
    0)
  in
  Cmd.v
    (Cmd.info "sat" ~doc:"Theorem 6.5: solve a CNF as a string query.")
    Term.(const run $ clauses)

(* --- limits ---------------------------------------------------------------- *)

let combinator_table =
  [
    ("equal_s", ([ "x"; "y" ], Combinators.equal_s "x" "y"));
    ("concat3", ([ "y"; "z"; "x" ], Combinators.concat3 "x" "y" "z"));
    ("manifold", ([ "x"; "y" ], Combinators.manifold "x" "y"));
    ("occurs_in", ([ "x"; "y" ], Combinators.occurs_in "x" "y"));
    ("prefix", ([ "y"; "x" ], Combinators.prefix "x" "y"));
    ("proper_prefix", ([ "x"; "y" ], Combinators.proper_prefix "x" "y"));
  ]

let limits_cmd =
  let formula_name =
    Arg.(
      required
      & pos 0 (some (Arg.enum (List.map (fun (n, _) -> (n, n)) combinator_table))) None
      & info [] ~docv:"FORMULA")
  in
  let inputs =
    Arg.(
      value & opt (list int) [ 0 ]
      & info [ "inputs" ] ~docv:"TAPES" ~doc:"Input tape indices.")
  in
  let run sigma formula_name inputs =
    guard (fun () ->
    let vars, phi = List.assoc formula_name combinator_table in
    let fsa = Compile.compile sigma ~vars phi in
    let outputs =
      List.filter (fun i -> not (List.mem i inputs)) (List.init fsa.Fsa.arity Fun.id)
    in
    Printf.printf "formula %s on tapes %s; inputs {%s} outputs {%s}\n" formula_name
      (String.concat "," vars)
      (String.concat "," (List.map string_of_int inputs))
      (String.concat "," (List.map string_of_int outputs));
    (match Limitation.analyze fsa ~inputs ~outputs with
    | Ok (Limitation.Limited b) -> Printf.printf "LIMITED with W = %s\n" b.Limitation.formula
    | Ok (Limitation.Unlimited r) -> Printf.printf "UNLIMITED: %s\n" r
    | Error e -> Printf.printf "analysis error: %s\n" e);
    0)
  in
  Cmd.v
    (Cmd.info "limits" ~doc:"Theorem 5.2: limitation analysis of a combinator.")
    Term.(const run $ sigma_arg $ formula_name $ inputs)

(* --- query ----------------------------------------------------------------- *)

let parse_rels rels =
  Database.of_list
    (List.map
       (fun spec ->
         match String.index_opt spec ':' with
         | None -> failwith ("relation spec needs a colon: " ^ spec)
         | Some i ->
             let name = String.sub spec 0 i in
             let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
             let tuples =
               if rest = "" then []
               else
                 List.map
                   (fun t -> String.split_on_char ',' t)
                   (String.split_on_char ';' rest)
             in
             (name, tuples))
       rels)

let rels_arg =
  Arg.(
    value & opt_all string []
    & info [ "r"; "relation" ] ~docv:"NAME:TUPLE;TUPLE"
        ~doc:
          "A relation, e.g. pair:ab,ba;ca,aa (tuples ';'-separated, \
           components ','-separated; repeatable).")

let query_cmd =
  let rels = rels_arg in
  let free =
    Arg.(
      value & opt (list string) []
      & info [ "f"; "free" ] ~docv:"VARS" ~doc:"Answer columns, in order.")
  in
  let body =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the plan instead of answers.")
  in
  let index =
    Arg.(
      value & flag
      & info [ "index" ]
          ~doc:
            "Build a q-gram factor index over the relations and let \
             σ-selections probe it instead of scanning (see \\$STRDB_INDEX).")
  in
  let run sigma jobs rels free body explain index =
    guard (fun () ->
      let db = parse_rels rels in
      let phi = Sparser.formula body in
      let free = if free = [] then Formula.free_vars phi else free in
      let store = if index then Some (Store.create sigma db) else None in
      if explain then begin
        match Eval.explain ?store sigma db phi with
        | Ok steps ->
            List.iter (fun s -> print_endline (Plan.step_to_string s)) steps;
            0
        | Error e ->
            prerr_endline e;
            1
      end
      else
        match Eval.run ~domains:jobs ?store sigma db ~free phi with
        | Ok answers ->
            List.iter
              (fun t -> print_endline (String.concat "\t" t))
              answers;
            0
        | Error e ->
            prerr_endline e;
            1)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an alignment-calculus query."
       ~man:
         [
           `S Manpage.s_examples;
           `P
             "strdb query -a ab -r 'pair:ab,ab;ab,ba' \\\\";
           `Noblank;
           `P
             "  'pair(x,y) & S{([x,y]l{x=y})*.[x,y]l{x=y & x=#}}'";
         ])
    Term.(const run $ sigma_arg $ jobs_arg $ rels $ free $ body $ explain $ index)

(* --- serve ----------------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/strdb.sock"
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the server listens on.")

let serve_cmd =
  let planted =
    Arg.(
      value
      & opt (some string) None
      & info [ "planted" ] ~docv:"N,LEN,MOTIF,RATE"
          ~doc:
            "Serve the planted-motif workload instead of -r relations: \
             unary seq with $(docv) rows (e.g. 10000,24,acgta,0.01).")
  in
  let index =
    Arg.(
      value & flag
      & info [ "index" ]
          ~doc:
            "Build a q-gram factor index over the served database and let \
             plans probe it (see \\$STRDB_INDEX).")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N" ~doc:"Session worker domains.")
  in
  let backlog =
    Arg.(
      value & opt int 16
      & info [ "backlog" ] ~docv:"N"
          ~doc:
            "Admitted-but-unserved connection bound; beyond it connections \
             get a fast BUSY reject.")
  in
  let cache_bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:
            "Prepared-plan cache bound (0 disables).  Defaults to \
             \\$STRDB_PLAN_CACHE, else 128.")
  in
  let run sigma jobs rels planted index workers backlog cache_bound socket =
    guard (fun () ->
        let db =
          match planted with
          | None -> parse_rels rels
          | Some spec -> (
              match String.split_on_char ',' spec with
              | [ n; len; motif; rate ] ->
                  Workload.planted_motif_db ~seed:1
                    ~n:(int_of_string (String.trim n))
                    ~len:(int_of_string (String.trim len))
                    ~motif:(String.trim motif)
                    ~hit_rate:(float_of_string (String.trim rate))
              | _ -> failwith ("bad --planted spec: " ^ spec))
        in
        let store = if index then Some (Store.create sigma db) else None in
        let cfg =
          Server.config ~workers ~backlog ~domains:jobs ?cache_bound ?store
            ~socket sigma db
        in
        Printf.printf
          "strdb serve: listening on %s (workers=%d, backlog=%d, domains=%d%s)\n\
           %!"
          socket workers backlog jobs
          (if index then ", indexed" else "");
        Server.run_blocking
          ~on_signal:(fun () -> prerr_endline "strdb serve: shutting down")
          cfg;
        0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve queries over a Unix socket (shared plan cache)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Line-delimited protocol: QUERY <formula>, \
              QUERY[v1,...] <formula>, EXPLAIN <formula>, STATS, PING, \
              QUIT.  Replies are 'OK <n>' plus n payload lines \
              (tab-separated rows), 'ERR <msg>', or 'BUSY' when the \
              bounded worker service is saturated.";
         ])
    Term.(
      const run $ sigma_arg $ jobs_arg $ rels_arg $ planted $ index $ workers
      $ backlog $ cache_bound $ socket_arg)

(* --- client ---------------------------------------------------------------- *)

let client_cmd =
  let request =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:"One protocol line, e.g. 'QUERY seq(x) & S{...}' or 'STATS'.")
  in
  let run socket request =
    guard (fun () ->
        let c = Client.connect socket in
        let r = Client.request c request in
        Client.close c;
        match r with
        | Ok lines ->
            List.iter print_endline lines;
            0
        | Error e ->
            Printf.eprintf "strdb client: error: %s\n" e;
            1)
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Send one request to a running strdb server.")
    Term.(const run $ socket_arg $ request)

(* --- align ----------------------------------------------------------------- *)

let align_cmd =
  let strings = Arg.(value & pos_all string [] & info [] ~docv:"STRING") in
  let shifts =
    Arg.(
      value & opt (list int) []
      & info [ "shift" ] ~docv:"N,N,..."
          ~doc:"Left-transpose each row this many times.")
  in
  let run strings shifts =
    guard (fun () ->
    let vars = List.mapi (fun i _ -> Printf.sprintf "x%d" i) strings in
    let a = ref (Alignment.initial (List.combine vars strings)) in
    List.iteri
      (fun i n ->
        match List.nth_opt vars i with
        | Some v ->
            for _ = 1 to n do
              a := Alignment.transpose !a { Sformula.tvars = [ v ]; dir = Sformula.Left }
            done
        | None -> ())
      shifts;
    Format.printf "%a@." Alignment.pp !a;
    0)
  in
  Cmd.v
    (Cmd.info "align" ~doc:"Print an alignment, Fig. 1 style.")
    Term.(const run $ strings $ shifts)

let () =
  let doc = "reasoning about strings in databases (Grahne-Nykänen-Ukkonen)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "strdb" ~doc)
          [
            match_cmd;
            editdist_cmd;
            sat_cmd;
            limits_cmd;
            query_cmd;
            serve_cmd;
            client_cmd;
            align_cmd;
          ]))
