(* The automaton optimization pipeline: runs between Compile.compile and
   the Runtime index.  Three language-preserving rewrites —
   dead/unreachable-state trimming, stay-transition elimination and
   equivalent-state merging by forward and backward partition refinement
   — plus the Section 5 shape analysis (unidirectional / right-restricted
   / general) that the Runtime uses to dispatch between acceptance
   kernels.

   Soundness is subtle because acceptance is by *halting*: a tuple is
   accepted iff some reachable configuration is in a final state with no
   enabled transition (Section 3).  Every rewrite below is justified
   against that semantics, and the qcheck suite checks optimized ≡
   original on random compiled formulae, both with and without Lemma 3.1
   specialisation. *)

(* Always true: kept only for perfbench/layers.ml, which still asks. *)
let enabled () = true

(* ------------------------------------------------------------------ *)
(* Shape analysis (the Section 5 taxonomy).  A tape is one-way when no
   transition moves its head left; the whole FSA is unidirectional when
   every tape is one-way, right-restricted when at most one tape is
   bidirectional (Fsa.is_right_restricted — the class Limitation's
   Theorem 5.2 analysis is built on), and general otherwise. *)

type tape_dir = Oneway | Twoway
type shape = Unidirectional | Right_restricted | General

let tape_dirs (a : Fsa.t) =
  Array.init a.Fsa.arity (fun i ->
      if Fsa.tape_bidirectional a i then Twoway else Oneway)

let shape_of (a : Fsa.t) =
  match Fsa.bidirectional_tapes a with
  | [] -> Unidirectional
  | [ _ ] -> Right_restricted
  | _ -> General

let shape_to_string = function
  | Unidirectional -> "unidirectional"
  | Right_restricted -> "right-restricted"
  | General -> "general"

(* Cheap-first rank for cost-based conjunct ordering in Eval. *)
let shape_rank = function
  | Unidirectional -> 0
  | Right_restricted -> 1
  | General -> 2

let describe (a : Fsa.t) =
  Printf.sprintf "%s, %d states, %d transitions"
    (shape_to_string (shape_of a))
    a.Fsa.num_states (Fsa.size a)

(* ------------------------------------------------------------------ *)
(* Rewrites.  Each pass rebuilds through Fsa.make, so the structural
   invariants (moves within endmarkers, arities) are re-validated. *)

let remake (a : Fsa.t) ~num_states ~start ~finals ~transitions =
  Fsa.make ~sigma:a.Fsa.sigma ~arity:a.Fsa.arity ~num_states ~start ~finals
    ~transitions

(* Duplicate transitions (the union/star constructions of Theorem 3.1
   produce them freely) multiply dispatch work for no reachability. *)
let dedup (a : Fsa.t) =
  let trs = List.sort_uniq compare (Array.to_list a.Fsa.transitions) in
  if List.length trs = Array.length a.Fsa.transitions then a
  else
    remake a ~num_states:a.Fsa.num_states ~start:a.Fsa.start
      ~finals:(Fsa.finals_list a) ~transitions:trs

(* --------------------------------------------- stay-transition elimination *)

(* A stay transition t : p --r--> q (all heads stationary) is an ε-like
   step: it changes the control state but not the observed window.  It
   can be eliminated when q is NOT final, by one of two sound moves:

   - self-loop (p = q): delete.  The loop reaches nothing new; deleting
     it can only turn (p, pos) into a halting configuration, which
     rejects either way since p is not final.
   - p ≠ q and q has at least one transition reading r: replace t with
     the compositions {p --r--> e with moves m | q --r--> e, m}.  Any
     accepting path through the skipped (q, pos) reroutes through a
     composition (the window at (q, pos) is still r, positions being
     unchanged), the skipped configuration itself is non-final, and
     since the compositions are non-empty no configuration at p becomes
     newly halting.

   When q is final, or q is non-final with no r-successor (deleting t
   could make a final p newly halting, i.e. newly accepting), the
   transition must stay.  In compiled normal form every stay transition
   enters the unique final state, so this pass mostly fires on
   specialised automata (Lemma 3.1 turns input-tape motion into
   stationary steps on the remaining tapes). *)
let stay_elim_round (a : Fsa.t) =
  let read_key (tr : Fsa.transition) = Array.to_list tr.Fsa.read in
  let by_src_read : (int * Symbol.t list, Fsa.transition list) Hashtbl.t =
    Hashtbl.create (Array.length a.Fsa.transitions)
  in
  Array.iter
    (fun (tr : Fsa.transition) ->
      let k = (tr.Fsa.src, read_key tr) in
      Hashtbl.replace by_src_read k
        (tr :: Option.value ~default:[] (Hashtbl.find_opt by_src_read k)))
    a.Fsa.transitions;
  let changed = ref false in
  let out = ref [] in
  let keep tr = out := tr :: !out in
  Array.iter
    (fun (tr : Fsa.transition) ->
      if Fsa.is_stationary tr && not a.Fsa.finals.(tr.Fsa.dst) then
        if tr.Fsa.src = tr.Fsa.dst then changed := true (* drop the loop *)
        else
          match Hashtbl.find_opt by_src_read (tr.Fsa.dst, read_key tr) with
          | None | Some [] -> keep tr
          | Some succs ->
              changed := true;
              List.iter
                (fun (s : Fsa.transition) ->
                  let comp = { s with Fsa.src = tr.Fsa.src } in
                  (* A composed stationary self-loop at a non-final state
                     is immediately deletable by the self-loop rule. *)
                  if
                    not
                      (Fsa.is_stationary comp
                      && comp.Fsa.src = comp.Fsa.dst
                      && not a.Fsa.finals.(comp.Fsa.src))
                  then keep comp)
                succs
      else keep tr)
    a.Fsa.transitions;
  if !changed then Some (List.sort_uniq compare !out) else None

let stay_elim (a : Fsa.t) =
  let budget = 2 * Fsa.size a in
  (* Compositions can cascade (and, in pathological automata, cycle);
     every round is independently sound, so a bounded fixpoint is safe.
     Compiled and merged automata usually have no stay transition into a
     non-final state, so they skip even the first round's table. *)
  let eliminable (tr : Fsa.transition) =
    Fsa.is_stationary tr && not a.Fsa.finals.(tr.Fsa.dst)
  in
  let rec go a rounds =
    if rounds = 0 then a
    else
      match stay_elim_round a with
      | None -> a
      | Some trs when List.length trs > budget -> a (* growth guard *)
      | Some trs ->
          go
            (remake a ~num_states:a.Fsa.num_states ~start:a.Fsa.start
               ~finals:(Fsa.finals_list a) ~transitions:trs)
            (rounds - 1)
  in
  if Array.exists eliminable a.Fsa.transitions then go a (a.Fsa.num_states + 4)
  else a

(* --------------------------------------------- equivalent-state merging *)

(* Two dual refinements, one routine.  [Forward] is Moore's: start from
   the finality partition and split blocks by their outgoing signature
   {(read, moves, block of dst)}.  Bisimilar states have identical
   finality and, observation by observation, identical enabled sets into
   identical blocks — so merging them preserves both reachability and
   haltingness, hence acceptance.

   [Backward] splits by the incoming signature {(read, moves, block of
   src)}, starting with the start state and each final state in a block
   of its own.  Every run of the quotient lifts to a run of the original
   with the same head positions: going backwards from the run's last
   state, each quotient transition [r] → [p] has, for every member of
   [p], a source in [r] with the same read and moves, and the lift ends
   in the start block, which holds only the start state.  So a
   configuration is reachable in the quotient exactly when every member
   of its block is reachable at those positions in the original.  Final
   blocks being singletons, a final configuration halts in one automaton
   exactly when it halts in the other.  This is what collapses
   Theorem 3.1's window guesses: an atomic enters one arrival state per
   window its test allows, all with the same incoming moves. *)
type direction = Forward | Backward

let refine dir (a : Fsa.t) =
  let n = a.Fsa.num_states in
  (* (read, moves) interned once; an edge's signature entry is then one
     int, its label times [n + 1] plus the block at its other end. *)
  let labels = Hashtbl.create 64 in
  let edges = Array.make n [] in
  Array.iter
    (fun (tr : Fsa.transition) ->
      let key = (tr.Fsa.read, tr.Fsa.moves) in
      let l =
        match Hashtbl.find_opt labels key with
        | Some l -> l
        | None ->
            let l = Hashtbl.length labels in
            Hashtbl.add labels key l;
            l
      in
      match dir with
      | Forward -> edges.(tr.Fsa.src) <- (l, tr.Fsa.dst) :: edges.(tr.Fsa.src)
      | Backward -> edges.(tr.Fsa.dst) <- (l, tr.Fsa.src) :: edges.(tr.Fsa.dst))
    a.Fsa.transitions;
  let block =
    Array.init n (fun q ->
        match dir with
        | Forward -> Bool.to_int a.Fsa.finals.(q)
        | Backward -> if q = a.Fsa.start || a.Fsa.finals.(q) then q + 1 else 0)
  in
  (* The signature leads with the old block, so the partition only ever
     refines; an unchanged block count means a fixpoint. *)
  let rec go count =
    let tbl = Hashtbl.create (2 * n) in
    let next = Array.make n 0 in
    for q = 0 to n - 1 do
      let sg =
        block.(q)
        :: List.sort_uniq Int.compare
             (List.map (fun (l, o) -> (l * (n + 1)) + block.(o)) edges.(q))
      in
      next.(q) <-
        (match Hashtbl.find_opt tbl sg with
        | Some b -> b
        | None ->
            let b = Hashtbl.length tbl in
            Hashtbl.add tbl sg b;
            b)
    done;
    Array.blit next 0 block 0 n;
    if Hashtbl.length tbl = count then count else go (Hashtbl.length tbl)
  in
  let count = go (-1) in
  (block, count)

(* The quotient by [dir]'s coarsest bisimulation, or [None] when it
   merges nothing. *)
let merge dir (a : Fsa.t) =
  if a.Fsa.num_states <= 1 then None
  else
    let block, count = refine dir a in
    if count = a.Fsa.num_states then None
    else
      let finals =
        Fsa.finals_list a |> List.map (fun q -> block.(q))
        |> List.sort_uniq compare
      in
      let transitions =
        Array.to_list a.Fsa.transitions
        |> List.map (fun (tr : Fsa.transition) ->
               { tr with Fsa.src = block.(tr.Fsa.src); dst = block.(tr.Fsa.dst) })
        |> List.sort_uniq compare
      in
      Some (remake a ~num_states:count ~start:block.(a.Fsa.start) ~finals ~transitions)

(* Forward first, then backward; a quotient is stable in the direction
   that made it, so the directions alternate only while the last pass
   merged something. *)
let merge_both a =
  let rec alternate dir a =
    match merge dir a with
    | None -> a
    | Some a' -> alternate (if dir = Forward then Backward else Forward) a'
  in
  alternate Backward (Option.value (merge Forward a) ~default:a)

(* ------------------------------------------------------------------ *)
(* The pipeline.  [run] is pure and total; it never worsens the
   (states, transitions) cost — if a pass sequence ends up larger (the
   stay-elimination compositions can, in principle) the smaller input
   wins.

   A round eliminates stay transitions, trims the states elimination
   cuts off (they would otherwise count as sources in backward
   signatures) and merges.  Merging can leave new stay transitions to
   eliminate, so rounds repeat while one shrinks the automaton — but a
   merged automaton is stable under both merges, so when elimination
   then changes nothing the round is skipped.  Running [run] on its own
   result therefore shrinks nothing further. *)

let cost (a : Fsa.t) = (a.Fsa.num_states, Fsa.size a)

let run (a : Fsa.t) =
  let rec settle ~merged a =
    let s = stay_elim a in
    if merged && s == a then a
    else
      let s = if Fsa.size s <= Fsa.size a then s else a in
      let m = merge_both (if s == a then a else dedup (Fsa.trim s)) in
      if cost m < cost a then settle ~merged:true m else a
  in
  settle ~merged:false (dedup (Fsa.trim a))

(* ------------------------------------------------------------------ *)
(* Memo, keyed on physical identity like the Runtime index memo (the
   Compile memo returns shared automata, so repeated queries optimize
   once).  When the pass wins nothing, [optimized] returns the input
   itself, keeping the FSA's identity — and with it any Runtime index
   already built for it. *)

let cache : (Fsa.t, Fsa.t) Strdb_util.Memo.t =
  Strdb_util.Memo.create ~name:"optimize" ~bound:256 ~hash:Fsa.size_hash
    ~equal:( == ) ()

let optimized (a : Fsa.t) =
  Strdb_util.Memo.find_or_add cache a (fun a ->
      let b = run a in
      if cost b < cost a then b else a)

let clear_cache () = Strdb_util.Memo.clear cache
