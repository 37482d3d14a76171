module F = Strdb_calculus.Formula
module S = Strdb_calculus.Sformula
module Db = Strdb_calculus.Database
module Pool = Strdb_util.Pool
module Store = Strdb_store.Store
module Factors = Strdb_fsa.Factors

type plan_step = Plan.plan_step =
  | Scan of string
  | IndexProbe of string * string
  | Filter of string * string
  | Generator of string * string * string

let skeleton phi =
  let rec strip acc = function
    | F.Exists (x, a) -> strip (x :: acc) a
    | body -> (List.rev acc, body)
  in
  let rec conjuncts = function
    | F.And (a, b) -> conjuncts a @ conjuncts b
    | c -> [ c ]
  in
  let qs, body = strip [] phi in
  (qs, conjuncts body)

let rec quantifier_free = function
  | F.Str _ | F.Rel _ -> true
  | F.And (a, b) -> quantifier_free a && quantifier_free b
  | F.Not a -> quantifier_free a
  | F.Exists _ -> false

(* A working table: the bound columns (variable names, in order), rows
   as arrays — every per-cell access is an O(1) [row.(i)] instead of the
   former [List.nth] — and a precomputed column→index map so resolving a
   variable is a hash probe, not an O(cols) scan per cell access.

   Invariant: every step's rows are duplicate-free.  The pipeline starts
   from one empty row.  A join with a relation keeps it, because the
   relation is a set (Section 2; [Database.add] sorts and dedups it,
   and a σ-index probe selects distinct row ids) and each output row
   determines its tuple: bound columns, new columns and repeated
   variables checked equal.  A generator keeps it, because
   [Generate.outputs] is a set per row.  Filters and negations only drop
   rows.  So only the final projection onto the free variables, when it
   drops a column, can create duplicates, and only it dedups. *)
type table = {
  cols : F.var list;
  index : (F.var, int) Hashtbl.t;
  rows : string array list;
}

let mk_table cols rows =
  let index = Hashtbl.create (max 8 (2 * List.length cols)) in
  List.iteri
    (fun i v -> if not (Hashtbl.mem index v) then Hashtbl.add index v i)
    cols;
  { cols; index; rows }

let col_index t v = Hashtbl.find_opt t.index v
let bound t v = Hashtbl.mem t.index v

(* The dedup key of a row.  The polymorphic [Hashtbl.hash] samples only
   a bounded prefix of a structure (10 "meaningful" nodes by default),
   so on wide rows it never looks past the first few columns: a join
   whose early columns repeat — long shared-prefix DNA strings are the
   motivating case — hashes thousands of distinct rows to one bucket
   and dedup degrades toward quadratic.  A length-prefixed
   concatenation is an injective encoding into [string], whose built-in
   hash reads every byte. *)
let row_key (r : string array) =
  let size = ref (12 * Array.length r) in
  Array.iter (fun s -> size := !size + String.length s) r;
  let b = Buffer.create (max 16 !size) in
  Array.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    r;
  Buffer.contents b

(* Hash-based dedup, first occurrence wins.  The table invariant makes
   it redundant on the execute path; it is the invariant's test oracle. *)
let dedup_rows rows =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let k = row_key r in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    rows

(* Hash join of the working table with relation [r] on the shared
   columns: index the relation's tuples by their projection onto the
   already-bound variables, then probe once per row — O(|rel| + |rows| +
   |matches|) instead of the former nested loop. *)
let join_rel ?tuples db t (r, args) =
  let args_arr = Array.of_list args in
  let m = Array.length args_arr in
  let new_vars =
    List.sort_uniq compare (List.filter (fun v -> not (bound t v)) args)
  in
  (* First tuple position of each argument variable. *)
  let first_pos v =
    let rec go j = if args_arr.(j) = v then j else go (j + 1) in
    go 0
  in
  (* Repeated variables must agree within a tuple (both bound and fresh). *)
  let dup_checks =
    List.concat
      (List.mapi
         (fun j v -> if first_pos v <> j then [ (j, first_pos v) ] else [])
         args)
  in
  (* Distinct bound variables, in first-occurrence order: the join key is
     their values — tuple side reads position [first_pos v], row side
     column [col_index t v]. *)
  let distinct_bound =
    List.filteri (fun j v -> first_pos v = j && bound t v) args
    |> List.map (fun v -> (first_pos v, Option.get (col_index t v)))
  in
  let new_first = List.map first_pos new_vars in
  let tuples = match tuples with Some l -> l | None -> Db.find db r in
  let tbl : (string list, string array) Hashtbl.t =
    Hashtbl.create (max 16 (List.length tuples))
  in
  List.iter
    (fun tup ->
      let tup = Array.of_list tup in
      if Array.length tup <> m then
        invalid_arg
          (Printf.sprintf "Eval: relation %s tuple arity %d, atom arity %d" r
             (Array.length tup) m);
      if List.for_all (fun (j, j') -> tup.(j) = tup.(j')) dup_checks then begin
        let key = List.map (fun (j, _) -> tup.(j)) distinct_bound in
        Hashtbl.add tbl key (Array.of_list (List.map (fun j -> tup.(j)) new_first))
      end)
    tuples;
  let rows =
    List.concat_map
      (fun row ->
        let key = List.map (fun (_, c) -> row.(c)) distinct_bound in
        List.rev_map (fun news -> Array.append row news) (Hashtbl.find_all tbl key))
      t.rows
  in
  mk_table (t.cols @ new_vars) rows

(* Evaluate a quantifier-free formula on one row. *)
let rec eval_qf db checker t row = function
  | F.Str s ->
      let bindings =
        List.map
          (fun v ->
            match col_index t v with
            | Some i -> (v, row.(i))
            | None -> invalid_arg "Eval: unbound variable in filter")
          (S.vars s)
      in
      checker s bindings
  | F.Rel (r, args) ->
      let tuple =
        List.map
          (fun v ->
            match col_index t v with
            | Some i -> row.(i)
            | None -> invalid_arg "Eval: unbound variable in filter")
          args
      in
      Db.mem db r tuple
  | F.And (a, b) -> eval_qf db checker t row a && eval_qf db checker t row b
  | F.Not a -> not (eval_qf db checker t row a)
  | F.Exists _ -> invalid_arg "Eval: quantifier in filter"

let describe_conjunct = function
  | F.Rel (r, args) -> Printf.sprintf "%s(%s)" r (String.concat "," args)
  | F.Str s -> Printf.sprintf "string formula on {%s}" (String.concat "," (S.vars s))
  | F.Not _ as c -> "negation " ^ Strdb_util.Pretty.to_string F.pp c
  | c -> Strdb_util.Pretty.to_string F.pp c

(* Shape-and-size cost of a string-formula conjunct under a variable
   order: the key for cheap-first conjunct ordering.  One-way automata
   run a linear kernel (DFA or frontier), so they filter (and generate) for
   less than a same-sized two-way automaton; ties break on automaton
   size.  Compilation is memoized, so planning pays this once. *)
let conjunct_cost sigma ~vars s =
  match Strdb_calculus.Compile.compile sigma ~vars s with
  | exception _ -> (max_int, max_int, max_int)
  | fsa ->
      let fsa = Strdb_fsa.Optimize.optimized fsa in
      ( Strdb_fsa.Optimize.shape_rank (Strdb_fsa.Optimize.shape_of fsa),
        fsa.Strdb_fsa.Fsa.num_states,
        Strdb_fsa.Fsa.size fsa )

let by_cost sigma vars_of l =
  List.stable_sort
    (fun a b ->
      compare (conjunct_cost sigma ~vars:(vars_of a) a)
        (conjunct_cost sigma ~vars:(vars_of b) b))
    l

(* The shape/kernel annotation shown by [explain]: what the optimized
   automaton that will actually run (a compiled conjunct or a fused
   product) looks like, and which acceptance kernel will run on it. *)
let annotate_fsa ~kernel fsa =
  let fsa = Strdb_fsa.Optimize.optimized fsa in
  Printf.sprintf "%s; %s"
    (Strdb_fsa.Optimize.describe fsa)
    (match kernel with
    | `Accepts -> Strdb_fsa.Runtime.kernel_name fsa
    | `Generate -> "output-trie walk")

let annotate sigma ~vars ~kernel s =
  match Strdb_calculus.Compile.compile sigma ~vars s with
  | exception _ -> "shape unknown (compilation failed)"
  | fsa -> annotate_fsa ~kernel fsa

(* A σ_A filter over bound columns: one shared FSA (a compiled conjunct
   or a fused product), one acceptance run per row.  Resolve the columns
   once and build the batch in a single pass — no intermediate
   array/list round-trip — then hand it to [Run.accepts_batch], which
   spreads the independent per-row searches over the pool. *)
let filter_rows_fsa pool t fsa vars rows =
  match rows with
  | [] -> [] (* nothing to scan: skip compilation of the batch entirely *)
  | _ -> (
      let idxs =
        List.map
          (fun v ->
            match col_index t v with
            | Some i -> i
            | None -> invalid_arg "Eval: unbound variable in filter")
          vars
      in
      match idxs with
      | [] ->
          (* Empty frame: the formula is closed, so one acceptance run
             decides every row at once — no per-row tuples. *)
          if Strdb_fsa.Run.accepts fsa [] then rows else []
      | _ ->
          let tuples =
            List.map (fun row -> List.map (fun i -> row.(i)) idxs) rows
          in
          let keep = Strdb_fsa.Run.accepts_batch ~pool fsa tuples in
          let i = ref (-1) in
          List.filter
            (fun _ ->
              incr i;
              keep.(!i))
            rows)

(* --------------------------------------------------- conjunct fusion *)

(* σ_A(σ_B(e)) = σ_{A×B}(e): greedily fold the cost-ordered filters
   into merged-frame products (Product.fuse), so each fused group costs
   one batch pass instead of one per conjunct.  Singleton groups take
   the classic path; with STRDB_FUSE=0 every group is a singleton and
   the unfused engine is reproduced exactly. *)
let fuse_filters sigma filters =
  let compiled s =
    match Strdb_calculus.Compile.compile sigma ~vars:(S.vars s) s with
    | exception _ -> None
    | fsa -> Some (fsa, S.vars s)
  in
  if not (Strdb_fsa.Product.enabled ()) then
    List.map (fun s -> ([ s ], None)) filters
  else begin
    let close cur groups =
      match cur with
      | [], _ -> groups
      | members, fused -> (List.rev members, fused) :: groups
    in
    let groups, last =
      List.fold_left
        (fun (groups, cur) s ->
          match compiled s with
          | None ->
              (* uncompilable conjunct: isolate it on the classic path *)
              (close ([ s ], None) (close cur groups), ([], None))
          | Some cf -> (
              match cur with
              | [], _ -> (groups, ([ s ], Some cf))
              | members, Some pf -> (
                  match Strdb_fsa.Product.fuse pf cf with
                  | Some pf' -> (groups, (s :: members, Some pf'))
                  | None -> (close cur groups, ([ s ], Some cf)))
              | _ :: _, None -> assert false))
        ([], ([], None))
        filters
    in
    List.rev (close last groups)
  end

(* Try to use [s] as a generator from the current table: returns the
   compiled FSA, the known/unknown split and the per-row output bound. *)
let certify_generator sigma t s =
  let vars = S.vars s in
  let known = List.filter (bound t) vars in
  let unknown = List.filter (fun v -> not (bound t v)) vars in
  let order = known @ unknown in
  match Strdb_calculus.Compile.compile sigma ~vars:order s with
  | exception _ -> None
  | fsa -> (
      let inputs = List.init (List.length known) (fun i -> i) in
      let outputs = List.init (List.length unknown) (fun i -> List.length known + i) in
      match Strdb_fsa.Limitation.analyze fsa ~inputs ~outputs with
      | Ok (Strdb_fsa.Limitation.Limited b) -> Some (fsa, known, unknown, b)
      | _ -> None)

(* ------------------------------------------------- σ-index pruning *)

(* Before joining relation [r], turn the single-variable string
   conjuncts over its columns into index probes: compile each, extract
   its necessary q-grams (Factors.necessary) and intersect the store's
   posting lists.  The surviving ids are a superset of the rows any
   accepted string can come from, so the scan shrinks to them — and
   since every probed conjunct stays in the pipeline as a filter over
   the joined column, the survivors are re-verified by the automaton:
   exactness never depends on the index, only speed does. *)
let index_prune st sigma strs (r, args) =
  if not (Store.enabled () && Store.indexed st r) then None
  else begin
    let qg = Store.q st in
    let cand = ref None in
    let descr = ref [] in
    List.iteri
      (fun j v ->
        List.iter
          (fun s ->
            if S.vars s = [ v ] then
              match Strdb_calculus.Compile.compile sigma ~vars:[ v ] s with
              | exception _ -> ()
              | fsa -> (
                  match Factors.necessary ~q:qg (Strdb_fsa.Optimize.optimized fsa) with
                  | Factors.Top -> ()
                  | Factors.Factors fs -> (
                      match Store.candidates st ~rel:r ~col:j ~factors:fs with
                      | None -> ()
                      | Some ids ->
                          descr :=
                            Printf.sprintf "%s ⊇ {%s}" v (String.concat "," fs)
                            :: !descr;
                          cand :=
                            Some
                              (match !cand with
                              | None -> ids
                              | Some prev -> Store.intersect_ids prev ids))))
          strs)
      args;
    match !cand with
    | None -> None
    | Some ids -> Some (ids, List.rev !descr)
  end

(* ------------------------------------------------- prepare / execute *)

(* Planning never looks at rows: conjunct ordering is shape-and-size
   cost over compile-memoized automata, generator certification is the
   Theorem 5.2 analysis of those same automata, and index probes read
   the immutable store — so a plan built once is exactly the plan
   [plan_and_run] would rebuild on every call, and executing it later
   (or concurrently, or repeatedly) yields identical answers.  The
   planner tracks which variables are bound with a rows-free working
   table, reusing the execution-side column machinery. *)
let prepare_unsafe ?store sigma db ~free phi =
  if List.sort compare free <> F.free_vars phi then
    Error "free variable list does not match the formula"
  else begin
    let _qs, conjs = skeleton phi in
    let non_qf =
      List.exists
        (function
          | F.Rel _ | F.Str _ -> false
          | c -> not (quantifier_free c))
        conjs
    in
    if non_qf then
      Error
        "outside the generator-pipeline fragment: a conjunct nests \
         quantifiers (evaluate with Safety.evaluate_truncated instead)"
    else begin
      let rels = List.filter_map (function F.Rel (r, a) -> Some (r, a) | _ -> None) conjs in
      let strs = List.filter_map (function F.Str s -> Some s | _ -> None) conjs in
      let negs =
        List.filter (function F.Rel _ | F.Str _ -> false | _ -> true) conjs
      in
      let steps = ref [] in
      let record s = steps := s :: !steps in
      let exec = ref [] in
      let emit s = exec := s :: !exec in
      (* The binding environment: a working table with no rows. *)
      let t = ref (mk_table [] []) in
      let extend cols = t := mk_table (!t.cols @ cols) [] in
      (* 1. Relational joins, behind σ-index pruning when a store for
         this database is supplied. *)
      List.iter
        (fun (r, args) ->
          let pruned =
            match store with
            | Some st when Store.database st == db -> (
                match index_prune st sigma strs (r, args) with
                | Some (ids, descr) -> Some (st, ids, descr)
                | None -> None)
            | _ -> None
          in
          (match pruned with
          | Some (st, ids, descr) ->
              record
                (IndexProbe
                   ( Printf.sprintf "σ-index[%s] on %s"
                       (String.concat "; " descr) r,
                     Printf.sprintf "verify(%d/%d)" (Array.length ids)
                       (Store.row_count st r) ))
          | None -> ());
          record (Scan (describe_conjunct (F.Rel (r, args))));
          let tuples =
            match pruned with
            | Some (st, ids, _) -> Some (Store.select st ~rel:r ~ids)
            | None -> None
          in
          emit (Plan.Join { rel = r; args; tuples });
          extend
            (List.sort_uniq compare
               (List.filter (fun v -> not (bound !t v)) args)))
        rels;
      (* 2. Saturate over string formulae: filters first, then certified
         generators. *)
      let remaining = ref strs in
      let error = ref None in
      while !remaining <> [] && !error = None do
        let filters, gens =
          List.partition (fun s -> List.for_all (bound !t) (S.vars s)) !remaining
        in
        (* Cost-based conjunct ordering: cheap one-way filters run first
           and shrink the table before expensive two-way ones see it;
           generator candidates are certified cheapest-first too.  Pure
           reordering of conjuncts of one conjunction — results are
           identical for every order. *)
        let filters = by_cost sigma (fun s -> S.vars s) filters in
        let gens =
          by_cost sigma
            (fun s ->
              List.filter (bound !t) (S.vars s)
              @ List.filter (fun v -> not (bound !t v)) (S.vars s))
            gens
        in
        if filters <> [] then begin
          (* σ-fusion: adjacent fusable filters collapse into one
             product automaton and one batch pass. *)
          List.iter
            (function
              | [ s ], _ ->
                  record
                    (Filter
                       ( describe_conjunct (F.Str s),
                         annotate sigma ~vars:(S.vars s) ~kernel:`Accepts s ));
                  emit
                    (Plan.FilterFsa
                       {
                         fsa =
                           Strdb_calculus.Compile.compile sigma
                             ~vars:(S.vars s) s;
                         frame = S.vars s;
                       })
              | members, Some (pfsa, pframe) ->
                  record
                    (Filter
                       ( Printf.sprintf "σ-fusion of %d conjuncts: %s"
                           (List.length members)
                           (String.concat " × "
                              (List.map
                                 (fun s -> describe_conjunct (F.Str s))
                                 members)),
                         annotate_fsa ~kernel:`Accepts pfsa ));
                  emit (Plan.FilterFsa { fsa = pfsa; frame = pframe })
              | _ -> assert false)
            (fuse_filters sigma filters);
          remaining := gens
        end
        else begin
          (* Pick the first (cheapest) certifiable generator. *)
          let rec attempt = function
            | [] ->
                error :=
                  Some
                    (Printf.sprintf
                       "cannot bind variables {%s}: no conjunct limits them \
                        (the Theorem 5.2 analysis certified no generator)"
                       (String.concat ","
                          (List.sort_uniq compare
                             (List.concat_map
                                (fun s -> List.filter (fun v -> not (bound !t v)) (S.vars s))
                                gens))))
            | s :: others -> (
                match certify_generator sigma !t s with
                | None -> attempt others
                | Some (fsa, known, unknown, b) ->
                    (* Selection pushdown: fuse trailing conjuncts whose
                       variables the generator binds into the generation
                       automaton, so candidates a filter would reject
                       are never materialized.  The frame must stay
                       known @ unknown (generation specializes a tape
                       prefix), which holds exactly when the pushed
                       conjunct's variables are all the generator's; the
                       per-row bound of the generator factor alone
                       remains valid, as products only shrink the
                       output language. *)
                    let gen_frame = known @ unknown in
                    let fsa, pushed =
                      if not (Strdb_fsa.Product.enabled ()) then (fsa, [])
                      else
                        List.fold_left
                          (fun (acc, pushed) s' ->
                            if
                              s' == s
                              || not
                                   (List.for_all
                                      (fun v -> List.mem v gen_frame)
                                      (S.vars s'))
                            then (acc, pushed)
                            else
                              match
                                Strdb_calculus.Compile.compile sigma
                                  ~vars:(S.vars s') s'
                              with
                              | exception _ -> (acc, pushed)
                              | fb -> (
                                  match
                                    Strdb_fsa.Product.fuse (acc, gen_frame)
                                      (fb, S.vars s')
                                  with
                                  | Some (p, frame) when frame = gen_frame ->
                                      (p, s' :: pushed)
                                  | _ -> (acc, pushed)))
                          (fsa, []) gens
                    in
                    let pushed = List.rev pushed in
                    record
                      (Generator
                         ( String.concat " ⋉ σ"
                             (describe_conjunct (F.Str s)
                             :: List.map
                                  (fun s' ->
                                    Printf.sprintf "[%s]"
                                      (describe_conjunct (F.Str s')))
                                  pushed),
                           Printf.sprintf "{%s} ⤳ {%s}, W = %s"
                             (String.concat "," known)
                             (String.concat "," unknown)
                             b.Strdb_fsa.Limitation.formula,
                           if pushed = [] then
                             annotate sigma ~vars:gen_frame ~kernel:`Generate s
                           else annotate_fsa ~kernel:`Generate fsa ));
                    (* Each row specialises (Lemma 3.1) the merged
                       automaton, not the compiled one: the product
                       grows with |Q|. *)
                    emit
                      (Plan.Gen
                         {
                           fsa = Strdb_fsa.Optimize.optimized fsa;
                           known;
                           unknown;
                           bound = b;
                         });
                    extend unknown;
                    remaining :=
                      List.filter
                        (fun s' -> not (s' == s) && not (List.memq s' pushed))
                        !remaining)
          in
          attempt gens
        end
      done;
      match !error with
      | Some e -> Error e
      | None ->
          let unbound = List.filter (fun v -> not (bound !t v)) free in
          if unbound <> [] then
            Error ("free variables never bound: " ^ String.concat ", " unbound)
          else begin
            (* 3. Negations as final filters. *)
            let neg_error = ref None in
            List.iter
              (fun c ->
                if !neg_error = None then begin
                  if List.exists (fun v -> not (bound !t v)) (F.free_vars c) then
                    neg_error :=
                      Some
                        ("a negated conjunct mentions a variable no positive \
                          conjunct binds: " ^ describe_conjunct c)
                  else begin
                    record (Filter (describe_conjunct c, "row predicate"));
                    emit (Plan.NegFilter c)
                  end
                end)
              negs;
            match !neg_error with
            | Some e -> Error e
            | None ->
                Ok
                  {
                    Plan.sigma;
                    db;
                    free;
                    checker = F.compiled_checker sigma;
                    steps = List.rev !exec;
                    describe = List.rev !steps;
                  }
          end
    end
  end

(* The plan/execute exception boundary: the signatures advertise
   [(_, string) result], so nothing user-triggerable may escape as an
   exception — under the query server an escapee would kill a worker
   domain instead of producing an [ERR] reply.  Everything the engine
   raises on bad input funnels through these constructors (arity
   mismatches and unbound variables as [Invalid_argument], alphabet
   violations, unknown relations as [Schema_error], hand-built automata
   as [Ill_formed]). *)
let guard f =
  match f () with
  | r -> r
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m
  | exception Strdb_util.Alphabet.Invalid_alphabet m -> Error m
  | exception Strdb_fsa.Fsa.Ill_formed m -> Error m
  | exception Db.Schema_error m -> Error m

let prepare ?store sigma db ~free phi =
  guard (fun () -> prepare_unsafe ?store sigma db ~free phi)

(* Replay a plan: the only pass that touches rows.  Per-execution state
   is all local (the working table), so one plan may execute on many
   domains at once — the automata, certificates and pruned tuple lists
   it closes over are immutable, and the memos underneath (compile,
   optimize, index, generate, the checker's own) are domain-safe. *)
let execute_unsafe pool (p : Plan.t) =
  let t = ref (mk_table [] [ [||] ]) in
  List.iter
    (fun step ->
      match step with
      | Plan.Join { rel; args; tuples } ->
          t := join_rel ?tuples p.Plan.db !t (rel, args)
      | Plan.FilterFsa { fsa; frame } ->
          t := { !t with rows = filter_rows_fsa pool !t fsa frame !t.rows }
      | Plan.Gen { fsa; known; unknown; bound = b } ->
          let known_idx =
            List.map (fun v -> Option.get (col_index !t v)) known
          in
          (* Each bound row expands independently (Lemma 3.1
             specialisation + enumeration): a parallel concat_map over
             the pool. *)
          let rows =
            Pool.concat_map_list pool
              (fun row ->
                let ins = List.map (fun i -> row.(i)) known_idx in
                let per_row_bound =
                  b.Strdb_fsa.Limitation.eval (List.map String.length ins)
                in
                Strdb_fsa.Generate.outputs fsa ~inputs:ins
                  ~max_len:per_row_bound
                |> List.map (fun out -> Array.append row (Array.of_list out)))
              !t.rows
          in
          t := mk_table (!t.cols @ unknown) rows
      | Plan.NegFilter c ->
          t :=
            { !t with
              rows =
                Pool.filter_list pool
                  (fun row -> eval_qf p.Plan.db p.Plan.checker !t row c)
                  !t.rows
            })
    p.Plan.steps;
  let free_idx = List.map (fun v -> Option.get (col_index !t v)) p.Plan.free in
  let project row = List.map (fun i -> row.(i)) free_idx in
  let rows = List.map project !t.rows in
  (* The same order as [compare] on string lists, without its
     polymorphic dispatch. *)
  let cmp = List.compare String.compare in
  let rec strictly_sorted = function
    | a :: (b :: _ as rest) -> cmp a b < 0 && strictly_sorted rest
    | _ -> true
  in
  if strictly_sorted rows then rows
  else if
    (* Keeping every column is injective, so the rows stay distinct. *)
    List.length (List.sort_uniq Int.compare free_idx) = List.length !t.cols
  then List.sort cmp rows
  else List.sort_uniq cmp rows

let execute ?(pool = Pool.sequential) plan =
  guard (fun () -> Ok (execute_unsafe pool plan))

let run ?domains ?store sigma db ~free phi =
  let domains =
    match domains with Some d -> d | None -> Pool.default_domains ()
  in
  let pool = if domains <= 1 then Pool.sequential else Pool.get domains in
  match prepare ?store sigma db ~free phi with
  | Error e -> Error e
  | Ok plan -> execute ~pool plan

let explain ?store sigma db phi =
  match prepare ?store sigma db ~free:(F.free_vars phi) phi with
  | Ok plan -> Ok (Plan.explain plan)
  | Error e -> Error e
