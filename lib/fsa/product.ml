(* Products of k-FSAs over merged variable frames: the automaton side of
   the σ_A(σ_B(e)) = σ_{A×B}(e) selection-composition law (Section 4),
   generalising the Theorem 3.1 conjunction closure to factors with
   different frames.

   Soundness leans on one structural property of compiled automata
   (Theorem 3.1 normal form): every final state has no outgoing
   transition, so reaching a final state coincides with acceptance under
   the halting semantics.  Both constructions check it ([normal_finals])
   and both produce automata that satisfy it again, so products fold
   n-ary. *)

module Alphabet = Strdb_util.Alphabet

type frame = string list

(* ------------------------------------------------------------------ *)
(* Toggle and state budget. *)

let enabled_flag = Atomic.make (Strdb_util.Knob.flag "STRDB_FUSE" ~default:true)
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let budget_flag = Atomic.make 4096
let state_budget () = Atomic.get budget_flag
let set_state_budget n = Atomic.set budget_flag (max 1 n)

(* ------------------------------------------------------------------ *)
(* Counters, reported by the F1 bench; memo hits are in the memo's own
   stats. *)

type stats = {
  attempts : int;
  sync_built : int;
  seq_built : int;
  budget_fallbacks : int;
  ineligible : int;
  deferred : int;
}

let c_attempts = Atomic.make 0
let c_sync = Atomic.make 0
let c_seq = Atomic.make 0
let c_budget = Atomic.make 0
let c_inel = Atomic.make 0
let c_deferred = Atomic.make 0

let stats () =
  {
    attempts = Atomic.get c_attempts;
    sync_built = Atomic.get c_sync;
    seq_built = Atomic.get c_seq;
    budget_fallbacks = Atomic.get c_budget;
    ineligible = Atomic.get c_inel;
    deferred = Atomic.get c_deferred;
  }

let reset_stats () =
  List.iter (fun c -> Atomic.set c 0)
    [ c_attempts; c_sync; c_seq; c_budget; c_inel; c_deferred ]

(* ------------------------------------------------------------------ *)
(* Frames. *)

let merged_frame fa fb = fa @ List.filter (fun v -> not (List.mem v fa)) fb

let index_of v l =
  let rec go i = function
    | [] -> invalid_arg "Product: variable missing from merged frame"
    | u :: rest -> if u = v then i else go (i + 1) rest
  in
  go 0 l

(* Merged tape index of each factor tape, in factor tape order. *)
let frame_maps fa fb =
  let merged = merged_frame fa fb in
  let pos frame = Array.of_list (List.map (fun v -> index_of v merged) frame) in
  (merged, pos fa, pos fb)

let duplicate_free f = List.length (List.sort_uniq compare f) = List.length f

let normal_finals (a : Fsa.t) =
  List.for_all (fun q -> Fsa.outgoing a q = []) (Fsa.finals_list a)

let compatible ((a : Fsa.t), fa) ((b : Fsa.t), fb) =
  Alphabet.equal a.Fsa.sigma b.Fsa.sigma
  && List.length fa = a.Fsa.arity
  && List.length fb = b.Fsa.arity
  && duplicate_free fa && duplicate_free fb
  && normal_finals a && normal_finals b

let rec int_pow b e = if e = 0 then 1 else b * int_pow b (e - 1)

(* ------------------------------------------------------------------ *)
(* Synchronized window product.

   Both factors must be unidirectional.  The product has one physical
   head per merged tape; the two factors run interleaved, each at its
   own pace.  Per shared tape the state carries a [cell]: the factors'
   head offsets relative to the physical head (the first square no
   physical read has verified yet) and a [win]dow of guessed symbols for
   the squares starting there.  A factor read below the window frontier
   is checked against the guess statically; a read at the frontier
   appends a new guess.  When every live factor has passed the head
   square (a halted factor counts as passed), the product reads the
   square physically and moves on — verifying the guess, since the
   transition is enabled only when the tape really holds it.  Once both
   factors have halted in final states, drain transitions physically
   verify whatever guesses remain; final product states are exactly
   those with both factors accepted and all windows empty, and they have
   no outgoing transitions.

   Every move emitted is 0 or +1, so unidirectionality is preserved and
   the fused automaton keeps the linear one-way frontier kernel.  The
   reachable state space is saturated breadth-first under the state
   budget; factor pairs whose traversal phases diverge unboundedly (a
   counter scan against a length scan, say) blow the budget and report
   [Overflow], which is a semantic necessity —
   their synchronized space genuinely is infinite — not just a cost
   guard. *)

type cell = { offa : int; offb : int; win : Symbol.t list }
type pstate = { qa : int; qb : int; da : bool; db_ : bool; cells : cell list }

type sync_outcome = Built of Fsa.t * frame | Overflow | Ineligible

let product_sync_impl ((a : Fsa.t), fa) ((b : Fsa.t), fb) =
  if not (compatible (a, fa) (b, fb)) then Ineligible
  else if Fsa.bidirectional_tapes a <> [] || Fsa.bidirectional_tapes b <> []
  then Ineligible
  else begin
    let merged, a_pos, b_pos = frame_maps fa fb in
    let k = List.length merged in
    let sigma = a.Fsa.sigma in
    let syms = Symbol.all sigma in
    (* Shared tapes, as slots: merged index per slot, slot per factor tape. *)
    let in_a = Array.make k false and in_b = Array.make k false in
    Array.iter (fun m -> in_a.(m) <- true) a_pos;
    Array.iter (fun m -> in_b.(m) <- true) b_pos;
    let slot_of = Array.make k (-1) in
    let slot_merged = ref [] in
    let nslots = ref 0 in
    for m = 0 to k - 1 do
      if in_a.(m) && in_b.(m) then begin
        slot_of.(m) <- !nslots;
        slot_merged := m :: !slot_merged;
        incr nslots
      end
    done;
    let slot_merged = Array.of_list (List.rev !slot_merged) in
    let nslots = !nslots in
    let a_slot = Array.map (fun m -> slot_of.(m)) a_pos in
    let b_slot = Array.map (fun m -> slot_of.(m)) b_pos in
    let budget = state_budget () in
    let tr_budget = 64 * budget in
    let overflow = ref false in
    let tbl : (pstate, int) Hashtbl.t = Hashtbl.create 97 in
    let work = Queue.create () in
    let n = ref 0 in
    let finals = ref [] in
    let trs = ref [] in
    let ntrs = ref 0 in
    let accepting ps =
      ps.da && ps.db_ && List.for_all (fun c -> c.win = []) ps.cells
    in
    let intern ps =
      match Hashtbl.find_opt tbl ps with
      | Some id -> Some id
      | None ->
          if !n >= budget then begin
            overflow := true;
            None
          end
          else begin
            let id = !n in
            incr n;
            Hashtbl.add tbl ps id;
            if accepting ps then finals := id :: !finals;
            Queue.add (ps, id) work;
            Some id
          end
    in
    (* Emit one product transition, expanding wildcard ([None]) reads
       over the full symbol set (all wildcard positions are stationary,
       so any symbol is legal). *)
    let emit src reads moves ps' =
      if not !overflow then
        match intern ps' with
        | None -> ()
        | Some dst ->
            let nw =
              Array.fold_left
                (fun acc r -> if r = None then acc + 1 else acc)
                0 reads
            in
            let count = int_pow (List.length syms) nw in
            if !ntrs + count > tr_budget then overflow := true
            else begin
              ntrs := !ntrs + count;
              let rec expand i cur =
                if i = k then
                  trs :=
                    {
                      Fsa.src;
                      read = Array.copy cur;
                      dst;
                      moves = Array.copy moves;
                    }
                    :: !trs
                else
                  match reads.(i) with
                  | Some r ->
                      cur.(i) <- r;
                      expand (i + 1) cur
                  | None ->
                      List.iter
                        (fun r ->
                          cur.(i) <- r;
                          expand (i + 1) cur)
                        syms
              in
              expand 0 (Array.make k Symbol.Lend)
            end
    in
    (* One factor step: [is_a] picks which factor moves. *)
    let gen_step is_a ps id (tr : Fsa.transition) =
      let fsa = if is_a then a else b in
      let pos = if is_a then a_pos else b_pos in
      let slot = if is_a then a_slot else b_slot in
      let other_done = if is_a then ps.db_ else ps.da in
      let reads = Array.make k None in
      let moves = Array.make k 0 in
      let cells = Array.of_list ps.cells in
      let ok = ref true in
      Array.iteri
        (fun i m ->
          if !ok then begin
            let r = tr.Fsa.read.(i) and mv = tr.Fsa.moves.(i) in
            let s = slot.(i) in
            if s < 0 then begin
              (* the factor's private tape: lift the read verbatim *)
              reads.(m) <- Some r;
              moves.(m) <- mv
            end
            else begin
              let c = cells.(s) in
              let off = if is_a then c.offa else c.offb in
              let wl = List.length c.win in
              if off < wl then begin
                if not (Symbol.equal (List.nth c.win off) r) then ok := false
              end
              else cells.(s) <- { c with win = c.win @ [ r ] };
              if !ok then begin
                let c = cells.(s) in
                let off' = off + mv in
                cells.(s) <-
                  (if is_a then { c with offa = off' }
                   else { c with offb = off' })
              end
            end
          end)
        pos;
      if !ok then begin
        let dst_done = fsa.Fsa.finals.(tr.Fsa.dst) in
        (* Per shared slot: physically read the head square's guess;
           shift (+1) once every factor has passed it — halted factors
           count as passed — unless the guess is ⊣, which cannot move
           right and is verified in place by a drain instead. *)
        Array.iteri
          (fun s m ->
            let c = cells.(s) in
            match c.win with
            | [] -> () (* unreachable: the stepping factor read this tape *)
            | w0 :: rest ->
                let own = if is_a then c.offa else c.offb in
                let oth = if is_a then c.offb else c.offa in
                if
                  (dst_done || own >= 1)
                  && (other_done || oth >= 1)
                  && not (Symbol.equal w0 Symbol.Rend)
                then begin
                  reads.(m) <- Some w0;
                  moves.(m) <- 1;
                  let own' = if dst_done then 0 else own - 1 in
                  let oth' = if other_done then 0 else oth - 1 in
                  cells.(s) <-
                    {
                      offa = (if is_a then own' else oth');
                      offb = (if is_a then oth' else own');
                      win = rest;
                    }
                end
                else begin
                  reads.(m) <- Some w0;
                  moves.(m) <- 0;
                  (* canonicalize a halted factor's offset to 0: it is
                     never consulted again, and collapsing it dedups
                     states *)
                  if dst_done then
                    cells.(s) <-
                      (if is_a then { c with offa = 0 } else { c with offb = 0 })
                end)
          slot_merged;
        let ps' =
          {
            qa = (if is_a then tr.Fsa.dst else ps.qa);
            qb = (if is_a then ps.qb else tr.Fsa.dst);
            da = (if is_a then dst_done else ps.da);
            db_ = (if is_a then ps.db_ else dst_done);
            cells = Array.to_list cells;
          }
        in
        emit id reads moves ps'
      end
    in
    (* Both factors halted in final states: physically verify the
       remaining guesses, one square per tape per step.  ⊣ can only ever
       be the last window entry (no factor can move past it to guess
       beyond), so verifying it stationarily is enough. *)
    let gen_drain ps id =
      if ps.da && ps.db_ && List.exists (fun c -> c.win <> []) ps.cells then begin
        let reads = Array.make k None in
        let moves = Array.make k 0 in
        let cells = Array.of_list ps.cells in
        Array.iteri
          (fun s m ->
            match cells.(s).win with
            | [] -> ()
            | w0 :: rest ->
                reads.(m) <- Some w0;
                moves.(m) <- (if Symbol.equal w0 Symbol.Rend then 0 else 1);
                cells.(s) <- { cells.(s) with win = rest })
          slot_merged;
        emit id reads moves { ps with cells = Array.to_list cells }
      end
    in
    let init =
      {
        qa = a.Fsa.start;
        qb = b.Fsa.start;
        da = a.Fsa.finals.(a.Fsa.start);
        db_ = b.Fsa.finals.(b.Fsa.start);
        cells = List.init nslots (fun _ -> { offa = 0; offb = 0; win = [] });
      }
    in
    (* Canonical scheduling: a live factor may step only when its
       maximum shared-tape offset does not exceed the other live
       factor's (halted factors are exempt).  Unrestricted interleaving
       would let one factor guess unboundedly far ahead, making the
       reachable space infinite for every pair; under this rule any pair
       of accepting runs still has a compliant interleaving (the factor
       with the smaller maximum is always permitted, and ties permit
       both), so exactness is preserved while lockstep-compatible pairs
       keep offsets — and windows — bounded. *)
    let maxoff is_a cells =
      List.fold_left
        (fun m c -> max m (if is_a then c.offa else c.offb))
        0 cells
    in
    let permitted is_a ps =
      (if is_a then ps.db_ else ps.da)
      || maxoff is_a ps.cells <= maxoff (not is_a) ps.cells
    in
    ignore (intern init);
    while (not !overflow) && not (Queue.is_empty work) do
      let ps, id = Queue.pop work in
      if (not ps.da) && permitted true ps then
        List.iter (gen_step true ps id) (Fsa.outgoing a ps.qa);
      if (not ps.db_) && permitted false ps then
        List.iter (gen_step false ps id) (Fsa.outgoing b ps.qb);
      gen_drain ps id
    done;
    if !overflow then Overflow
    else
      match
        Fsa.make ~sigma ~arity:k ~num_states:(max 1 !n) ~start:0
          ~finals:!finals
          ~transitions:(List.sort_uniq compare !trs)
      with
      | exception Fsa.Ill_formed _ -> Ineligible
      | p -> Built (p, merged)
  end

let product_sync fa fb =
  match product_sync_impl fa fb with
  | Built (p, f) -> Some (p, f)
  | Overflow | Ineligible -> None

(* ------------------------------------------------------------------ *)
(* Sequential composition: run A on the merged frame with B's private
   tapes pinned at ⊢ (read ⊢, stay — they start there and A never moves
   them), then from each A-final rewind every tape A may have moved back
   to ⊢ one tape at a time, then run B with A's private tapes pinned.
   Reaching an A-final is A-acceptance (normal form), the rewind always
   completes, and the product's finals are B's finals lifted — so the
   composition accepts exactly the intersection, for factors of any
   shape.  The rewind moves heads left, so the result is general-shape:
   the synchronized product is preferred when it applies. *)

let product_seq ((a : Fsa.t), fa) ((b : Fsa.t), fb) =
  if not (compatible (a, fa) (b, fb)) then None
  else begin
    let merged, a_pos, b_pos = frame_maps fa fb in
    let k = List.length merged in
    let sigma = a.Fsa.sigma in
    let chars = List.map (fun c -> Symbol.Chr c) (Alphabet.chars sigma) in
    let syms = Symbol.all sigma in
    (* Tapes to rewind: the merged positions of A-tapes some A
       transition moves; unmoved tapes never leave ⊢. *)
    let moved = Array.make a.Fsa.arity false in
    Array.iter
      (fun (tr : Fsa.transition) ->
        Array.iteri (fun i m -> if m <> 0 then moved.(i) <- true) tr.Fsa.moves)
      a.Fsa.transitions;
    let rw =
      Array.to_list a_pos
      |> List.filteri (fun i _ -> moved.(i))
      |> List.sort compare |> Array.of_list
    in
    let nrw = Array.length rw in
    let na = a.Fsa.num_states and nb = b.Fsa.num_states in
    let r0 = na in
    let b_off = na + nrw in
    let num_states = na + nrw + nb in
    let trs = ref [] in
    let ntrs = ref 0 in
    let tr_budget = 64 * max 64 (state_budget ()) in
    let over = ref false in
    let push t =
      incr ntrs;
      if !ntrs > tr_budget then over := true else trs := t :: !trs
    in
    (* A's transitions, lifted to the merged arity. *)
    Array.iter
      (fun (tr : Fsa.transition) ->
        let read = Array.make k Symbol.Lend and moves = Array.make k 0 in
        Array.iteri
          (fun i m ->
            read.(m) <- tr.Fsa.read.(i);
            moves.(m) <- tr.Fsa.moves.(i))
          a_pos;
        push { Fsa.src = tr.Fsa.src; read; dst = tr.Fsa.dst; moves })
      a.Fsa.transitions;
    (* Rewind stage [j] pulls tape [rw.(j)] back to ⊢: loop left over
       Σ ∪ {⊣}, advance on ⊢.  Already-rewound tapes, unmoved A-tapes
       and B's private tapes all read ⊢; not-yet-rewound tapes hold an
       unknown symbol, enumerated.  The same outgoing set is grafted
       onto each A-final, which starts the rewind. *)
    let stage_dst j = if j + 1 < nrw then r0 + j + 1 else b_off + b.Fsa.start in
    let stage src j =
      let t = rw.(j) in
      let wild = Array.sub rw (j + 1) (nrw - j - 1) in
      let emit read =
        List.iter
          (fun s ->
            let r = Array.copy read in
            r.(t) <- s;
            let mv = Array.make k 0 in
            mv.(t) <- -1;
            push { Fsa.src; read = r; dst = r0 + j; moves = mv })
          (chars @ [ Symbol.Rend ]);
        let r = Array.copy read in
        r.(t) <- Symbol.Lend;
        push { Fsa.src; read = r; dst = stage_dst j; moves = Array.make k 0 }
      in
      let rec expand i read =
        if i = Array.length wild then emit read
        else
          List.iter
            (fun s ->
              let r = Array.copy read in
              r.(wild.(i)) <- s;
              expand (i + 1) r)
            syms
      in
      expand 0 (Array.make k Symbol.Lend)
    in
    if nrw = 0 then
      List.iter
        (fun f ->
          push
            {
              Fsa.src = f;
              read = Array.make k Symbol.Lend;
              dst = b_off + b.Fsa.start;
              moves = Array.make k 0;
            })
        (Fsa.finals_list a)
    else begin
      List.iter (fun f -> stage f 0) (Fsa.finals_list a);
      for j = 0 to nrw - 1 do
        stage (r0 + j) j
      done
    end;
    (* B's transitions, lifted; all A-tapes sit at ⊢ after the rewind. *)
    Array.iter
      (fun (tr : Fsa.transition) ->
        let read = Array.make k Symbol.Lend and moves = Array.make k 0 in
        Array.iteri
          (fun j m ->
            read.(m) <- tr.Fsa.read.(j);
            moves.(m) <- tr.Fsa.moves.(j))
          b_pos;
        push
          {
            Fsa.src = b_off + tr.Fsa.src;
            read;
            dst = b_off + tr.Fsa.dst;
            moves;
          })
      b.Fsa.transitions;
    let finals = List.map (fun q -> b_off + q) (Fsa.finals_list b) in
    if !over then None
    else
      match
        Fsa.make ~sigma ~arity:k ~num_states ~start:a.Fsa.start ~finals
          ~transitions:(List.sort_uniq compare !trs)
      with
      | exception Fsa.Ill_formed _ -> None
      | p -> Some (p, merged)
  end

(* ------------------------------------------------------------------ *)
(* The memoized dispatcher.  Keyed on physical factor identities (the
   Compile memo hands out shared automata), so a query plan rebuilt for
   every run reuses one product — and with it the Optimize and Runtime
   memos keyed on the product's identity.

   A product costs milliseconds to build and saves microseconds per
   execution, so it is built only once its pair has shown it recurs.
   Each key's slot moves Requested → Building → Done: the first request
   records the key and answers [None], the second builds (one domain
   wins the slot by compare-and-set; a domain that loses answers [None]
   this once), and every later one reads the result. *)

type key = Fsa.t * frame * Fsa.t * frame
type slot = Requested | Building | Done of (Fsa.t * frame) option

let cache : (key, slot Atomic.t) Strdb_util.Memo.t =
  Strdb_util.Memo.create ~name:"product" ~bound:128
    ~hash:(fun (a, _, b, _) -> (Fsa.size_hash a * 31) + Fsa.size_hash b)
    ~equal:(fun (a, fa, b, fb) (a', fa', b', fb') ->
      a == a' && b == b' && fa = fa' && fb = fb')
    ()

let clear_cache () = Strdb_util.Memo.clear cache

let build ((a, fa) as left) ((b, fb) as right) =
  if not (compatible left right) then begin
    Atomic.incr c_inel;
    None
  end
  else begin
    Atomic.incr c_attempts;
    (* Optimized factors give smaller products; the passes preserve
       the normal-finals property. *)
    let a' = Optimize.optimized a and b' = Optimize.optimized b in
    let r =
      match product_sync_impl (a', fa) (b', fb) with
      | Built (p, f) ->
          Atomic.incr c_sync;
          Some (p, f)
      | Overflow ->
          (* Budget blowout means the synchronized space is too large
             (often genuinely infinite for phase-divergent factors).
             The sequential composition would still be exact, but its
             generate-then-test evaluation is no faster than leaving
             the conjuncts unfused — so fall back to the unfused plan
             and let the caller keep separate passes. *)
          Atomic.incr c_budget;
          None
      | Ineligible ->
          let r = product_seq (a', fa) (b', fb) in
          if Option.is_some r then Atomic.incr c_seq;
          r
    in
    Option.map (fun (p, f) -> (Optimize.optimized p, f)) r
  end

let fuse ((a, fa) as left) ((b, fb) as right) =
  if not (enabled ()) then None
  else
    let key = (a, fa, b, fb) in
    match Strdb_util.Memo.find cache key with
    | None ->
        ignore (Strdb_util.Memo.add cache key (Atomic.make Requested));
        Atomic.incr c_deferred;
        None
    | Some slot -> (
        match Atomic.get slot with
        | Done r -> r
        | Requested when Atomic.compare_and_set slot Requested Building -> (
            match build left right with
            | r ->
                Atomic.set slot (Done r);
                r
            | exception e ->
                Atomic.set slot Requested;
                raise e)
        | Requested | Building -> None)
