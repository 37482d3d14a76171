(* The automaton optimization pipeline: runs between Compile.compile and
   the Runtime index.  Three language-preserving rewrites —
   dead/unreachable-state trimming, stay-transition elimination and
   equivalent-state merging by partition refinement — plus the Section 5
   shape analysis (unidirectional / right-restricted / general) that the
   Runtime uses to dispatch between acceptance kernels.

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
     every round is independently sound, so a bounded fixpoint is safe. *)
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
  go a (a.Fsa.num_states + 4)

(* --------------------------------------------- equivalent-state merging *)

(* Coarsest bisimulation by Moore-style partition refinement: start from
   the finality partition and split blocks by their outgoing signature
   {(read, moves, block of dst)} until stable.  Bisimilar states have
   identical finality and, observation by observation, identical enabled
   sets into identical blocks — so merging them preserves both
   reachability and haltingness, hence acceptance. *)
let merge (a : Fsa.t) =
  let n = a.Fsa.num_states in
  if n <= 1 then a
  else begin
    let block = Array.init n (fun q -> if a.Fsa.finals.(q) then 1 else 0) in
    let count = ref 0 in
    let stable = ref false in
    while not !stable do
      let tbl = Hashtbl.create (2 * n) in
      let next = ref 0 in
      let newblock = Array.make n 0 in
      for q = 0 to n - 1 do
        let outs =
          List.map
            (fun i ->
              let tr = a.Fsa.transitions.(i) in
              ( Array.to_list tr.Fsa.read,
                Array.to_list tr.Fsa.moves,
                block.(tr.Fsa.dst) ))
            a.Fsa.by_src.(q)
          |> List.sort_uniq compare
        in
        let sg = (block.(q), outs) in
        newblock.(q) <-
          (match Hashtbl.find_opt tbl sg with
          | Some b -> b
          | None ->
              let b = !next in
              incr next;
              Hashtbl.add tbl sg b;
              b)
      done;
      (* The signature includes the old block, so the partition only ever
         refines; an unchanged block count means a fixpoint. *)
      if !next = !count then stable := true
      else begin
        count := !next;
        Array.blit newblock 0 block 0 n
      end
    done;
    if !count = n then a
    else begin
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
      remake a ~num_states:!count ~start:block.(a.Fsa.start) ~finals
        ~transitions
    end
  end

(* ------------------------------------------------------------------ *)
(* The pipeline.  [run] is pure and total; it never worsens the
   (states, transitions) cost — if a pass sequence ends up larger (the
   stay-elimination compositions can, in principle) the smaller input
   wins. *)

let cost (a : Fsa.t) = (a.Fsa.num_states, Fsa.size a)

let run (a : Fsa.t) =
  let a0 = dedup (Fsa.trim a) in
  let a1 = stay_elim a0 in
  let a1 = if Fsa.size a1 <= Fsa.size a0 then a1 else a0 in
  let a2 = dedup (Fsa.trim (merge a1)) in
  if cost a2 <= cost a0 then a2 else a0

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
