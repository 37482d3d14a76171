module Symbol = Strdb_fsa.Symbol
module Fsa = Strdb_fsa.Fsa
module Memo = Strdb_util.Memo

(* An automaton under construction.  Invariants maintained by every
   combinator (the properties of Theorem 3.1):
   - [final = None] means a single rejecting start state;
   - the final state has no outgoing transitions;
   - every transition entering the final state is stationary, and every
     stationary transition enters the final state;
   - the start state has no incoming transitions. *)
type auto = {
  n : int;
  start : int;
  final : int option;
  trans : Fsa.transition list;
}

let reject = { n = 1; start = 0; final = None; trans = [] }

let all_vectors sigma k =
  let syms = Symbol.all sigma in
  let rec go i =
    if i = 0 then [ [] ]
    else
      let shorter = go (i - 1) in
      List.concat_map (fun s -> List.map (fun v -> s :: v) shorter) syms
  in
  List.map Array.of_list (go k)

(* The λ automaton: accepts the empty formula word in any configuration. *)
let lambda_auto sigma k =
  let trans =
    List.map
      (fun b -> { Fsa.src = 0; read = b; dst = 1; moves = Array.make k 0 })
      (all_vectors sigma k)
  in
  { n = 2; start = 0; final = Some 1; trans }

(* Per-tape (before-symbol, move) options for an atomic transposing the
   tapes in [moved] with direction [dir], given the after-symbol [b]. *)
let tape_options sigma ~moved ~dir j (b : Symbol.t) =
  if not moved.(j) then [ (b, 0) ]
  else
    let chars = List.map (fun c -> Symbol.Chr c) (Strdb_util.Alphabet.chars sigma) in
    match dir with
    | Sformula.Left -> (
        (* Moving right over the tape: impossible to land on ⊢; a row whose
           window is already past its right end does not move. *)
        match b with
        | Symbol.Lend -> []
        | Symbol.Rend -> ((Symbol.Rend, 0) :: List.map (fun a -> (a, 1)) (chars @ [ Symbol.Lend ]))
        | Symbol.Chr _ -> List.map (fun a -> (a, 1)) (chars @ [ Symbol.Lend ]))
    | Sformula.Right -> (
        match b with
        | Symbol.Rend -> []
        | Symbol.Lend -> ((Symbol.Lend, 0) :: List.map (fun a -> (a, -1)) (chars @ [ Symbol.Rend ]))
        | Symbol.Chr _ -> List.map (fun a -> (a, -1)) (chars @ [ Symbol.Rend ]))

let atomic_auto sigma vars (at : Sformula.atomic) =
  let k = List.length vars in
  let moved = Array.make k false in
  List.iter
    (fun v ->
      match List.find_index (fun u -> u = v) vars with
      | Some i -> moved.(i) <- true
      | None ->
          invalid_arg
            (Printf.sprintf "Compile: transpose variable %s not among the tapes" v))
    at.Sformula.shift.tvars;
  let dir = at.Sformula.shift.dir in
  let sat_bs = Window.sat_vectors sigma vars at.Sformula.test in
  let next = ref 2 in
  let trans = ref [] in
  let had_final = ref false in
  List.iter
    (fun b ->
      let options = List.init k (fun j -> tape_options sigma ~moved ~dir j b.(j)) in
      if List.for_all (fun o -> o <> []) options then begin
        (* Enumerate the (a⃗, d⃗) combinations. *)
        let combos =
          List.fold_right
            (fun opts acc ->
              List.concat_map (fun (a, d) -> List.map (fun (av, dv) -> (a :: av, d :: dv)) acc) opts)
            options
            [ ([], []) ]
        in
        let qb = ref (-1) in
        List.iter
          (fun (av, dv) ->
            let a = Array.of_list av and d = Array.of_list dv in
            if Array.for_all (fun x -> x = 0) d then begin
              (* Fig. 5 bypass: a stationary entry straight into the final
                 state (then a = b by construction). *)
              had_final := true;
              trans := { Fsa.src = 0; read = a; dst = 1; moves = d } :: !trans
            end
            else begin
              if !qb < 0 then begin
                qb := !next;
                incr next;
                had_final := true;
                trans :=
                  { Fsa.src = !qb; read = b; dst = 1; moves = Array.make k 0 }
                  :: !trans
              end;
              trans := { Fsa.src = 0; read = a; dst = !qb; moves = d } :: !trans
            end)
          combos
      end)
    sat_bs;
  if not !had_final then reject
  else { n = !next; start = 0; final = Some 1; trans = !trans }

let shift_trans offset (tr : Fsa.transition) =
  { tr with src = tr.src + offset; dst = tr.dst + offset }

(* Splice [a2] after [a1]: merge a1's final with a2's start using the
   stationary-bypass of Fig. 5. *)
let concat_auto a1 a2 =
  match (a1.final, a2.final) with
  | None, _ | _, None -> reject
  | Some f1, Some f2 ->
      let offset = a1.n in
      let t2 = List.map (shift_trans offset) a2.trans in
      let s2 = a2.start + offset in
      let into_f1 = List.filter (fun (tr : Fsa.transition) -> tr.dst = f1) a1.trans in
      let rest1 = List.filter (fun (tr : Fsa.transition) -> tr.dst <> f1) a1.trans in
      let out_s2 = List.filter (fun (tr : Fsa.transition) -> tr.src = s2) t2 in
      let rest2 = List.filter (fun (tr : Fsa.transition) -> tr.src <> s2) t2 in
      let bypasses =
        List.concat_map
          (fun (t1 : Fsa.transition) ->
            List.filter_map
              (fun (t2 : Fsa.transition) ->
                if t1.read = t2.read then
                  Some { Fsa.src = t1.src; read = t1.read; dst = t2.dst; moves = t2.moves }
                else None)
              out_s2)
          into_f1
      in
      {
        n = a1.n + a2.n;
        start = a1.start;
        final = Some (f2 + offset);
        trans = rest1 @ rest2 @ bypasses;
      }

let star_auto sigma k a =
  match a.final with
  | None -> lambda_auto sigma k
  | Some f ->
      let f' = a.n in
      let exit_arcs =
        List.map
          (fun b -> { Fsa.src = a.start; read = b; dst = f'; moves = Array.make k 0 })
          (all_vectors sigma k)
      in
      (* Stationary start→final arcs are subsumed by the new exits. *)
      let body =
        List.filter
          (fun (tr : Fsa.transition) ->
            not (tr.src = a.start && tr.dst = f && Fsa.is_stationary tr))
          a.trans
      in
      let into_f = List.filter (fun (tr : Fsa.transition) -> tr.dst = f) body in
      let rest = List.filter (fun (tr : Fsa.transition) -> tr.dst <> f) body in
      let from_start =
        exit_arcs
        @ List.filter (fun (tr : Fsa.transition) -> tr.src = a.start) rest
      in
      let bypasses =
        List.concat_map
          (fun (t1 : Fsa.transition) ->
            List.filter_map
              (fun (u : Fsa.transition) ->
                if t1.read = u.read then
                  Some { Fsa.src = t1.src; read = t1.read; dst = u.dst; moves = u.moves }
                else None)
              from_start)
          into_f
      in
      { n = a.n + 1; start = a.start; final = Some f'; trans = rest @ exit_arcs @ bypasses }

let union_auto a1 a2 =
  match (a1.final, a2.final) with
  | None, None -> reject
  | None, Some _ ->
      (* Only a2 contributes; merge the starts. *)
      let offset = a1.n in
      let remap q = if q = a2.start + offset then a1.start else q + 0 in
      let t2 = List.map (shift_trans offset) a2.trans in
      let t2 = List.map (fun (tr : Fsa.transition) -> { tr with src = remap tr.src; dst = remap tr.dst }) t2 in
      {
        n = a1.n + a2.n;
        start = a1.start;
        final = Option.map (fun f -> f + offset) a2.final;
        trans = a1.trans @ t2;
      }
  | Some _, None -> a1
  | Some f1, Some _ ->
      let offset = a1.n in
      let s2 = a2.start + offset and f2 = Option.get a2.final + offset in
      let remap q = if q = s2 then a1.start else if q = f2 then f1 else q in
      let t2 =
        List.map
          (fun tr ->
            let tr = shift_trans offset tr in
            { tr with src = remap tr.src; dst = remap tr.dst })
          a2.trans
      in
      { n = a1.n + a2.n; start = a1.start; final = Some f1; trans = a1.trans @ t2 }

let rec build sigma vars k = function
  | Sformula.Atomic at -> atomic_auto sigma vars at
  | Sformula.Lambda -> lambda_auto sigma k
  | Sformula.Concat (f, g) -> concat_auto (build sigma vars k f) (build sigma vars k g)
  | Sformula.Union (f, g) -> union_auto (build sigma vars k f) (build sigma vars k g)
  | Sformula.Star f -> star_auto sigma k (build sigma vars k f)

let compile_uncached ?(trim = true) sigma ~vars phi =
  let missing =
    List.filter (fun v -> not (List.mem v vars)) (Sformula.vars phi)
  in
  if missing <> [] then
    invalid_arg
      ("Compile: variables not covered by the tape order: "
      ^ String.concat ", " missing);
  (match List.sort_uniq compare vars with
  | l when List.length l <> List.length vars ->
      invalid_arg "Compile: duplicate variables in the tape order"
  | _ -> ());
  let k = List.length vars in
  let body = build sigma vars k phi in
  (* Prepend the initial-alignment test: a single transition requiring every
     head on ⊢ (the final step of Theorem 3.1's proof). *)
  let init =
    {
      n = 2;
      start = 0;
      final = Some 1;
      trans =
        [ { Fsa.src = 0; read = Array.make k Symbol.Lend; dst = 1; moves = Array.make k 0 } ];
    }
  in
  let whole = concat_auto init body in
  let finals = match whole.final with None -> [] | Some f -> [ f ] in
  let fsa =
    Fsa.make ~sigma ~arity:k ~num_states:whole.n ~start:whole.start ~finals
      ~transitions:whole.trans
  in
  if trim then Fsa.trim fsa else fsa

(* Memoized front door.  Eval.certify_generator and
   Formula.compiled_checker recompile the same string formula per
   conjunct/per query; the memo collapses those to one compilation.
   Keys are structural — alphabet characters, tape order, formula, trim —
   and compiled FSAs are immutable, so sharing is safe; sharing is in
   fact desirable, because Runtime's dispatch index is keyed on the FSA's
   physical identity and composes with this memo.  Eviction drops one
   least-recently-used entry at a time, never the whole table, so hot
   entries keep the identity the index memo has built on.  [compare]
   rather than [( = )]: it stops at physically equal subterms. *)
let cache : (char list * Window.var list * Sformula.t * bool, Fsa.t) Memo.t =
  Memo.create ~name:"compile" ~bound:256 ~hash:Hashtbl.hash
    ~equal:(fun a b -> compare a b = 0)
    ()

type stats = Memo.stats = { hits : int; misses : int; evictions : int; entries : int; bound : int }

let stats () = Memo.stats cache
let clear_cache () = Memo.clear cache

let compile ?(trim = true) sigma ~vars phi =
  Memo.find_or_add cache
    (Strdb_util.Alphabet.chars sigma, vars, phi, trim)
    (fun _ -> compile_uncached ~trim sigma ~vars phi)

let compile_ordered sigma phi = compile sigma ~vars:(Sformula.vars phi) phi
