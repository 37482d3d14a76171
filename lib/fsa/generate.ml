(* Two enumerators of a k-FSA's bounded language: the naive reference
   (string-valued committed prefixes, one configuration at a time,
   List.filter dispatch — the original code) and the output-trie walk
   over packed configuration sets, which [accepted] runs; the qcheck
   suite asserts they agree. *)

(* ------------------------------------------------------------------ *)
(* Naive reference implementation. *)

(* A lazily-determined tape: the committed prefix, whether the string has
   been declared complete, and the head position.  Invariant: the head sits
   on a *concrete* square — position 0 (⊢), a committed character, or, when
   [finished], position [length committed + 1] (⊣); a head about to enter
   the unknown frontier forces a branch before any transition fires. *)
type tape = { committed : string; finished : bool; pos : int }

type node = { state : int; tapes : tape array }

let symbol_under tape =
  if tape.pos = 0 then Some Symbol.Lend
  else if tape.pos <= String.length tape.committed then
    Some (Symbol.Chr tape.committed.[tape.pos - 1])
  else if tape.finished then Some Symbol.Rend
  else None (* at the frontier of an unfinished tape: must branch first *)

let node_key n =
  ( n.state,
    Array.to_list (Array.map (fun t -> (t.committed, t.finished, t.pos)) n.tapes)
  )

let accepted_naive (a : Fsa.t) ~max_len =
  if max_len < 0 then invalid_arg "Generate.accepted: negative bound";
  let sigma_chars = Strdb_util.Alphabet.chars a.sigma in
  let results = Hashtbl.create 64 in
  let seen = Hashtbl.create 1024 in
  let stack = ref [] in
  let push n =
    let k = node_key n in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      stack := n :: !stack
    end
  in
  push { state = a.start; tapes = Array.make a.arity { committed = ""; finished = false; pos = 0 } };
  (* Emit all completions of the committed prefixes of unfinished tapes. *)
  let emit n =
    let rec expand i acc =
      if i = a.arity then Hashtbl.replace results (List.rev acc) ()
      else
        let t = n.tapes.(i) in
        if t.finished then expand (i + 1) (t.committed :: acc)
        else
          let budget = max_len - String.length t.committed in
          let suffixes = Strdb_util.Strutil.all_strings_upto a.sigma (max budget 0) in
          List.iter (fun sfx -> expand (i + 1) ((t.committed ^ sfx) :: acc)) suffixes
    in
    expand 0 []
  in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest -> (
        stack := rest;
        (* If some head is at the frontier of an unfinished tape, branch on
           what that square holds. *)
        let frontier_tape =
          let idx = ref (-1) in
          Array.iteri
            (fun i t -> if !idx < 0 && symbol_under t = None then idx := i)
            n.tapes;
          !idx
        in
        if frontier_tape >= 0 then begin
          let i = frontier_tape in
          let t = n.tapes.(i) in
          (* In a non-final state, committing a symbol no transition can
             read dead-ends immediately (every transition needs all heads to
             match), so branch only on the symbols the state can consume.
             Final states keep the full branching: an unreadable symbol is a
             halting — hence accepting — configuration. *)
          let final = Fsa.is_final a n.state in
          let readable =
            if final then None
            else
              Some
                (List.map (fun (tr : Fsa.transition) -> tr.read.(i)) (Fsa.outgoing a n.state))
          in
          let allowed sym =
            match readable with
            | None -> true
            | Some syms -> List.exists (Symbol.equal sym) syms
          in
          (* End the string here... *)
          if allowed Symbol.Rend then begin
            let tapes_end = Array.copy n.tapes in
            tapes_end.(i) <- { t with finished = true };
            push { n with tapes = tapes_end }
          end;
          (* ...or commit each possible next character, within the bound. *)
          if String.length t.committed < max_len then
            List.iter
              (fun c ->
                if allowed (Symbol.Chr c) then begin
                  let tapes_c = Array.copy n.tapes in
                  tapes_c.(i) <- { t with committed = t.committed ^ String.make 1 c };
                  push { n with tapes = tapes_c }
                end)
              sigma_chars
        end
        else begin
          let under = Array.map (fun t -> Option.get (symbol_under t)) n.tapes in
          let fires =
            List.filter
              (fun (tr : Fsa.transition) ->
                Array.for_all2 Symbol.equal tr.read under)
              (Fsa.outgoing a n.state)
          in
          (* A halting configuration accepts every completion of the
             unexplored parts of the tapes. *)
          if fires = [] && Fsa.is_final a n.state then emit n;
          List.iter
            (fun (tr : Fsa.transition) ->
              let tapes =
                Array.mapi
                  (fun i t -> { t with pos = t.pos + tr.moves.(i) })
                  n.tapes
              in
              push { state = tr.dst; tapes })
            fires
        end)
  done;
  Hashtbl.fold (fun tup () acc -> tup :: acc) results [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* The output-trie walk.

   A trie node is one tuple of committed output prefixes, each possibly
   finished (its ⊣ committed), with a set of configurations whose heads
   read committed squares only, closed under firing.  A configuration
   is blocked when a head reaches the first uncommitted square of an
   unfinished tape; it is filed under its lowest such tape.  For each
   tape with blocked configurations the node branches into each
   character (within the bound) and ⊣, seeding each child with the
   configurations blocked on that tape only.  Configurations blocked on
   one tape therefore never re-run under another tape's branching:
   carried along instead, two threads writing different tapes would
   cost the product of their subtrees.  The price is that the branches
   of one node for different tapes can commit the same tuple in
   different orders, so a tuple may be emitted more than once and the
   answer is deduplicated when it is sorted.

   A node holding a halting configuration in a final state emits its
   prefixes with every completion of its unfinished tapes, and stops:
   every tuple below it is among those completions.

   Configurations are packed ints over the layout with max_len + 2 head
   positions per tape, so firing a transition adds a constant.  All
   scratch is per call and grows on demand: the closure's worklist, a
   generation-stamped open-addressing set (one generation per node),
   each tape's committed ranks, the blocked configurations per tape, a
   stack of blocked-configuration segments and a stack of pending child
   frames.  Generator rows run on pool and server domains, so nothing
   here is shared. *)

(* A growable int stack. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1
end

(* A set of non-negative ints with O(1) clearing: a slot belongs to the
   set when its stamp is the current generation. *)
module Stamped = struct
  type t = {
    mutable keys : int array;
    mutable stamps : int array;
    mutable gen : int;
    mutable count : int;
  }

  let create () = { keys = Array.make 64 0; stamps = Array.make 64 0; gen = 1; count = 0 }

  let clear s =
    s.gen <- s.gen + 1;
    s.count <- 0

  let hash k = (k * 0x9E3779B1) lxor (k lsr 16)

  (* Insert [k] unless present; true when it was fresh. *)
  let insert keys stamps gen k =
    let mask = Array.length keys - 1 in
    let i = ref (hash k land mask) in
    while Array.unsafe_get stamps !i = gen && Array.unsafe_get keys !i <> k do
      i := (!i + 1) land mask
    done;
    if Array.unsafe_get stamps !i = gen then false
    else begin
      Array.unsafe_set keys !i k;
      Array.unsafe_set stamps !i gen;
      true
    end

  let add s k =
    let fresh = insert s.keys s.stamps s.gen k in
    if fresh then begin
      s.count <- s.count + 1;
      if 2 * s.count >= Array.length s.keys then begin
        let n = 2 * Array.length s.keys in
        let keys = Array.make n 0 and stamps = Array.make n 0 in
        Array.iteri
          (fun i st -> if st = s.gen then ignore (insert keys stamps s.gen s.keys.(i)))
          s.stamps;
        s.keys <- keys;
        s.stamps <- stamps
      end
    end;
    fresh
end

(* The walk over [a] with its dispatch index [rt].  With [first] it
   stops at the first accepting node and answers one tuple of it. *)
let walk rt (a : Fsa.t) ~max_len ~first =
  if max_len < 0 then invalid_arg "Generate.accepted: negative bound";
  let k = a.arity in
  match
    if Runtime.indexable rt then Runtime.layout a (Array.make k max_len) else None
  with
  | None ->
      (match accepted_naive a ~max_len with t :: _ when first -> [ t ] | all -> all)
  | Some l ->
      let sz = Strdb_util.Alphabet.size a.sigma in
      let chars = Array.of_list (Strdb_util.Alphabet.chars a.sigma) in
      let states = l.states and dim = max_len + 2 in
      let rend = sz + 1 in
      let rank = function
        | Symbol.Chr c -> Strdb_util.Alphabet.rank a.sigma c
        | Symbol.Lend -> sz
        | Symbol.Rend -> rend
      in
      (* Runtime's symbol-vector code: Σᵢ rank(sᵢ)·(|Σ|+2)ⁱ. *)
      let wts = Array.make k 1 in
      for i = 1 to k - 1 do
        wts.(i) <- wts.(i - 1) * (sz + 2)
      done;
      (* Firing transition t adds tdelta.(t) to a packed key. *)
      let tdelta =
        Array.map
          (fun (tr : Fsa.transition) ->
            let d = ref (tr.dst - tr.src) in
            Array.iteri (fun i m -> d := !d + (m * l.steps.(i))) tr.moves;
            !d)
          a.transitions
      in
      (* reads.(q·k + i): the symbol ranks some transition out of q reads
         on tape i, as a bitmask, or -1 (every symbol) over 62 ranks and
         for a final state, where an unreadable square halts and accepts.
         A child whose square no blocked configuration can read would die
         at once, so it is not made. *)
      let wide = sz + 2 > 62 in
      let reads = Array.make (a.num_states * k) (if wide then -1 else 0) in
      if not wide then
        Array.iter
          (fun (tr : Fsa.transition) ->
            Array.iteri
              (fun i s ->
                let j = (tr.src * k) + i in
                reads.(j) <- reads.(j) lor (1 lsl rank s))
              tr.read)
          a.transitions;
      Array.iteri (fun j _ -> if a.finals.(j / k) then reads.(j) <- -1) reads;
      let allowed m r = m = -1 || m land (1 lsl r) <> 0 in
      (* The current node: each tape's committed ranks and length, and
         the set of finished tapes as a bitmask. *)
      let bufs = Array.init k (fun _ -> Bytes.create 16) in
      let lens = Array.make k 0 and fin = ref 0 in
      let commit t r =
        let n = lens.(t) in
        if n = Bytes.length bufs.(t) then begin
          let b = Bytes.create (2 * n) in
          Bytes.blit bufs.(t) 0 b 0 n;
          bufs.(t) <- b
        end;
        Bytes.unsafe_set bufs.(t) n (Char.unsafe_chr r);
        lens.(t) <- n + 1
      in
      let results = ref [] in
      let prefix i = String.init lens.(i) (fun j -> chars.(Char.code (Bytes.get bufs.(i) j))) in
      let emit () =
        if first then results := [ List.init k prefix ]
        else
          let rec expand i acc =
            if i < 0 then results := acc :: !results
            else
              let p = prefix i in
              if !fin land (1 lsl i) <> 0 then expand (i - 1) (p :: acc)
              else
                List.iter
                  (fun sfx -> expand (i - 1) ((p ^ sfx) :: acc))
                  (Strdb_util.Strutil.all_strings_upto a.sigma (max_len - lens.(i)))
          in
          expand (k - 1) []
      in
      (* A frame is a pending child: the branching tape and the rank
         committed there, the parent's blocked segment in [seeds], and
         the parent's finished set and lengths. *)
      let fw = 5 + k in
      let frames = Vec.create () and seeds = Vec.create () and work = Vec.create () in
      let set = Stamped.create () in
      let blocked = Array.init k (fun _ -> Vec.create ()) and masks = Array.make k 0 in
      let push_frame t r lo hi =
        Vec.push frames t;
        Vec.push frames r;
        Vec.push frames lo;
        Vec.push frames hi;
        Vec.push frames !fin;
        Array.iter (Vec.push frames) lens
      in
      Vec.push seeds a.start;
      push_frame (-1) 0 0 1;
      let stop = ref false in
      while frames.n > 0 && not !stop do
        let f = frames.n - fw in
        frames.n <- f;
        let fr = frames.a in
        let t = fr.(f) and r = fr.(f + 1) and lo = fr.(f + 2) and hi = fr.(f + 3) in
        fin := fr.(f + 4);
        Array.blit fr (f + 5) lens 0 k;
        if t >= 0 then if r = rend then fin := !fin lor (1 lsl t) else commit t r;
        (* Everything above the segment belongs to finished frames. *)
        seeds.n <- hi;
        Stamped.clear set;
        work.n <- 0;
        for j = lo to hi - 1 do
          let key = seeds.a.(j) in
          if Stamped.add set key then Vec.push work key
        done;
        let accept = ref false in
        while (not !accept) && work.n > 0 do
          work.n <- work.n - 1;
          let key = Array.unsafe_get work.a work.n in
          let q = key mod states in
          let rest = ref (key / states) and code = ref 0 and b = ref (-1) in
          let i = ref 0 in
          while !b < 0 && !i < k do
            let ti = !i in
            let p = !rest mod dim in
            rest := !rest / dim;
            if p = 0 then code := !code + (sz * wts.(ti))
            else if p <= lens.(ti) then
              code := !code + (Char.code (Bytes.unsafe_get bufs.(ti) (p - 1)) * wts.(ti))
            else if !fin land (1 lsl ti) <> 0 then code := !code + (rend * wts.(ti))
            else b := ti;
            incr i
          done;
          let b = !b in
          if b >= 0 then begin
            Vec.push blocked.(b) key;
            masks.(b) <- masks.(b) lor reads.((q * k) + b)
          end
          else begin
            let trs = Runtime.transitions_for rt ~state:q ~code:!code in
            if Array.length trs = 0 then begin
              if a.finals.(q) then accept := true
            end
            else
              for e = 0 to Array.length trs - 1 do
                let succ = key + tdelta.(Array.unsafe_get trs e) in
                if Stamped.add set succ then Vec.push work succ
              done
          end
        done;
        if !accept then begin
          emit ();
          if first then stop := true
        end;
        (* Branch on each tape with blocked configurations (none after
           an accept), ⊣ last so that it is taken first. *)
        for t = 0 to k - 1 do
          let v = blocked.(t) and m = masks.(t) in
          if v.n > 0 && not !accept then begin
            let blo = seeds.n in
            for j = 0 to v.n - 1 do
              Vec.push seeds v.a.(j)
            done;
            let bhi = seeds.n in
            if lens.(t) < max_len then
              for c = 0 to sz - 1 do
                if allowed m c then push_frame t c blo bhi
              done;
            if allowed m rend then push_frame t rend blo bhi
          end;
          v.n <- 0;
          masks.(t) <- 0
        done
      done;
      List.sort_uniq compare !results

let accepted_fast a ~max_len = walk (Runtime.index a) a ~max_len ~first:false

let accepted a ~max_len = accepted_fast (Optimize.optimized a) ~max_len

(* Optimized-specialization memo for the generator pipeline, keyed on
   the automaton's physical identity plus the bound input strings.  A
   query suite re-expands the same bound rows on every run (and a join
   often binds the same tuple repeatedly within one), so the Lemma 3.1
   product — the optimize pass that trims it, usually to almost
   nothing, and its private dispatch index — is paid once per
   (automaton, inputs) instead of once per row visit.  The inputs are
   what tells entries apart, so they are what the memo hashes. *)
let spec_cache : (Fsa.t * string list, Fsa.t * Runtime.t) Strdb_util.Memo.t =
  Strdb_util.Memo.create ~name:"generate" ~bound:512
    ~hash:(fun (a, inputs) -> Hashtbl.hash inputs + Fsa.size_hash a)
    ~equal:(fun (a, ins) (a', ins') -> a == a' && ins = ins')
    ()

let clear_spec_cache () = Strdb_util.Memo.clear spec_cache

(* Uncached [Optimize.run] on the fresh product: the identity-keyed
   [Optimize.optimized] memo would never hit — but the pass itself pays
   off (Specialize never trims backward-unreachable states, and Lemma
   3.1 leaves stationary chains to eliminate). *)
let specialize_optimized (a, inputs) =
  let spec = Optimize.run (Specialize.specialize a inputs) in
  (spec, Runtime.index_uncached spec)

(* The automaton [outputs] walks for a bound row, with its index. *)
let specialized a inputs =
  Strdb_util.Memo.find_or_add spec_cache (a, inputs) specialize_optimized

let outputs a ~inputs ~max_len =
  let spec, rt = specialized a inputs in
  walk rt spec ~max_len ~first:false

let is_empty_upto ?(inputs = []) a ~max_len =
  let spec, rt =
    if inputs = [] then
      let a = Optimize.optimized a in
      (a, Runtime.index a)
    else specialized a inputs
  in
  walk rt spec ~max_len ~first:true = []
