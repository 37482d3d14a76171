module A = Strdb_util.Alphabet
module Memo = Strdb_util.Memo

(* Always true: kept only for perfbench/layers.ml, which still asks. *)
let enabled () = true

(* ------------------------------------------------------------------ *)
(* A monomorphic int hash set with open addressing: the visited set of
   the configuration search when the packed key space is too large for a
   bitmap.  Slots store key+1 so that 0 can mean "empty" (keys are ≥ 0). *)

module Int_set = struct
  type t = { mutable slots : int array; mutable count : int }

  (* [size] must be a power of two (the probe sequence masks). *)
  let create ?(size = 1024) () = { slots = Array.make size 0; count = 0 }
  let hash k = (k * 0x9E3779B1) lxor (k lsr 16)

  let insert slots v =
    let mask = Array.length slots - 1 in
    let i = ref (hash (v - 1) land mask) in
    let fresh = ref false in
    let looking = ref true in
    while !looking do
      let cur = Array.unsafe_get slots !i in
      if cur = 0 then begin
        Array.unsafe_set slots !i v;
        fresh := true;
        looking := false
      end
      else if cur = v then looking := false
      else i := (!i + 1) land mask
    done;
    !fresh

  let grow s =
    let slots = Array.make (2 * Array.length s.slots) 0 in
    Array.iter (fun v -> if v <> 0 then ignore (insert slots v)) s.slots;
    s.slots <- slots

  (* [add s k] is true when [k] was not yet in the set. *)
  let add s k =
    let fresh = insert s.slots (k + 1) in
    if fresh then begin
      s.count <- s.count + 1;
      if 2 * s.count >= Array.length s.slots then grow s
    end;
    fresh
end

(* ------------------------------------------------------------------ *)
(* Per-FSA transition index.

   Symbols are ranked 0..|Σ|+1 (characters by alphabet rank, then ⊢,
   then ⊣) and a read vector becomes the mixed-radix code
   Σᵢ rank(readᵢ)·(|Σ|+2)ⁱ.  Every transition reads one concrete vector,
   so dispatch is an exact-match table: state × code ↦ the indices of the
   enabled transitions, replacing the List.filter over Fsa.outgoing. *)

(* The DFA row-scan kernel of a one-tape one-way automaton: the subset
   construction of its Theorem 6.1 NFA (Oneway.to_nfa), built on first
   use, and its absorbing states, where a scan can stop. *)
type dfa = { table : Strdb_automata.Dfa.t; settled : bool array }
type dfa_slot = Unbuilt | Over_budget | Built of dfa

(* The frontier kernel's successor table, built on first use: the
   enabled transitions of each (state, symbol code), laid out like the
   dispatch table, as packed ints [(dst lsl id_bits) lor id] where [id]
   names the transition's move vector.  A one-way move vector is the set
   of tapes it advances, [masks.(id)] as a bitmask; id 0 advances none. *)
type frontier = {
  succ : int array array;
  succ_sparse : (int, int array) Hashtbl.t;
  masks : int array;
  id_bits : int;
}

type t = {
  fsa : Fsa.t;
  base : int;  (* |Σ| + 2 *)
  lend_rank : int;
  rend_rank : int;
  weights : int array;  (* weights.(i) = base^i *)
  vec_count : int;  (* base^arity, or 0 when that overflows the guard *)
  dense : int array array;  (* [state·vec_count + code] ↦ indices *)
  sparse : (int, int array) Hashtbl.t;
  use_dense : bool;
  oneway : bool;  (* Optimize.shape_of = Unidirectional: no head ever
                     moves left, so acceptance runs the frontier kernel —
                     or, on one tape, the DFA kernel. *)
  dfa : dfa_slot Atomic.t;
  frontier : frontier option Atomic.t;
}

let no_transitions : int array = [||]

(* Dense dispatch is an array of num_states·vec_count pointers; beyond
   this budget fall back to an int-keyed hashtable. *)
let dense_budget = 1 lsl 20

(* Codes must stay well inside an int; beyond this the index degrades to
   [indexable = false] and callers keep the naive path. *)
let code_budget = 1 lsl 30

let indexable rt = rt.vec_count > 0

let sym_rank rt = function
  | Symbol.Chr c -> A.rank rt.fsa.Fsa.sigma c
  | Symbol.Lend -> rt.lend_rank
  | Symbol.Rend -> rt.rend_rank

let code_of_symbols rt syms =
  let c = ref 0 in
  Array.iteri (fun i s -> c := !c + (sym_rank rt s * rt.weights.(i))) syms;
  !c

let build (a : Fsa.t) =
  let sz = A.size a.sigma in
  let base = sz + 2 in
  let weights = Array.make a.arity 1 in
  let vec_count = ref 1 in
  for i = 0 to a.arity - 1 do
    if !vec_count > 0 then begin
      weights.(i) <- !vec_count;
      if !vec_count > code_budget / base then vec_count := 0
      else vec_count := !vec_count * base
    end
  done;
  let vec_count = !vec_count in
  let rt =
    {
      fsa = a;
      base;
      lend_rank = sz;
      rend_rank = sz + 1;
      weights;
      vec_count;
      dense = [||];
      sparse = Hashtbl.create 1;
      use_dense = false;
      oneway = Optimize.shape_of a = Optimize.Unidirectional;
      dfa = Atomic.make Unbuilt;
      frontier = Atomic.make None;
    }
  in
  if vec_count = 0 then rt
  else begin
    let use_dense = a.num_states <= dense_budget / vec_count in
    let buckets : (int, int list) Hashtbl.t =
      Hashtbl.create (Array.length a.transitions)
    in
    Array.iteri
      (fun idx (tr : Fsa.transition) ->
        let key = (tr.src * vec_count) + code_of_symbols rt tr.read in
        let prev = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
        Hashtbl.replace buckets key (idx :: prev))
      a.transitions;
    if use_dense then begin
      let dense = Array.make (a.num_states * vec_count) no_transitions in
      Hashtbl.iter
        (fun key idxs -> dense.(key) <- Array.of_list (List.rev idxs))
        buckets;
      { rt with dense; use_dense = true }
    end
    else begin
      let sparse = Hashtbl.create (Hashtbl.length buckets) in
      Hashtbl.iter
        (fun key idxs -> Hashtbl.replace sparse key (Array.of_list (List.rev idxs)))
        buckets;
      { rt with sparse }
    end
  end

let transitions_for rt ~state ~code =
  let key = (state * rt.vec_count) + code in
  if rt.use_dense then rt.dense.(key)
  else Option.value ~default:no_transitions (Hashtbl.find_opt rt.sparse key)

let transition rt i = rt.fsa.Fsa.transitions.(i)

(* ------------------------------------------------------------------ *)
(* Index memo, keyed on the FSA's physical identity.  Compile's memo
   returns physically equal FSAs for repeated formulae, so the two
   compose: re-running a query re-uses both the automaton and its
   dispatch index.  The bound matches the compile memo's: the index
   working set is at most one index per live compiled FSA, since
   specialised automata keep private indexes in Generate's memo. *)

let cache : (Fsa.t, t) Memo.t =
  Memo.create ~name:"index" ~bound:256 ~hash:Fsa.size_hash ~equal:( == ) ()

type stats = Memo.stats = { hits : int; misses : int; evictions : int; entries : int; bound : int }

let stats () = Memo.stats cache
let index (a : Fsa.t) = Memo.find_or_add cache a build

(* A private index: built fresh, never inserted into (or counted
   against) the shared memo.  For automata whose physical identity
   never recurs outside their owner — Generate.outputs keeps one with
   each memoized Lemma 3.1 specialisation; caching those only evicts
   the indices that do recur. *)
let index_uncached (a : Fsa.t) = build a

let clear_cache () = Memo.clear cache

(* ------------------------------------------------------------------ *)
(* Packed configuration keys.  For input lengths n₁..n_k a configuration
   (q, p₁..p_k) with pᵢ ∈ [0, nᵢ+1] is packed as
       q + states·(p₁ + d₁·(p₂ + d₂·(…)))        dᵢ = nᵢ + 2,
   a single int whenever states·Πdᵢ fits; [layout] is None otherwise. *)

type layout = { states : int; dims : int array; steps : int array; total : int }

let layout (a : Fsa.t) lens =
  let states = a.num_states in
  let k = Array.length lens in
  let dims = Array.map (fun n -> n + 2) lens in
  let steps = Array.make k 0 in
  let acc = ref states in
  let ok = ref true in
  Array.iteri
    (fun i d ->
      steps.(i) <- !acc;
      if !ok && !acc <= max_int / d then acc := !acc * d else ok := false)
    dims;
  if !ok then Some { states; dims; steps; total = !acc } else None

let pack l ~state ~pos =
  let key = ref state in
  Array.iteri (fun i p -> key := !key + (p * l.steps.(i))) pos;
  !key

(* Decode the state and write the positions into [pos] (scratch reuse in
   the search loop). *)
let unpack_into l key pos =
  let r = ref key in
  let state = !r mod l.states in
  r := !r / l.states;
  Array.iteri
    (fun i d ->
      pos.(i) <- !r mod d;
      r := !r / d)
    l.dims;
  state

let unpack l key =
  let pos = Array.make (Array.length l.dims) 0 in
  let state = unpack_into l key pos in
  (state, pos)

(* ------------------------------------------------------------------ *)
(* The frontier kernel for unidirectional FSAs (every move ∈ {0,1}ᵏ).

   Head-position sums only grow, so configurations are processed by
   levels of equal position sum, and the configurations that share a
   head-position cell together: a cell holds the set of states reached
   there, a bitset of ⌈|Q|/63⌉ words.  A level is a dense slice over the
   positions of every tape but the longest, whose position the level's
   sum implies.  A move adds 0..k to the sum, so only k+1 levels are
   live, kept in a ring, and a per-level touched list visits only the
   occupied cells.  Stationary moves stay in their cell and are closed
   worklist-style before the cell is cleared. *)

(* The per-row scratch bound, in words (8 MB).  The ring's bitsets and
   touched lists take (k+1)·cells·(⌈|Q|/63⌉+1) of them, where cells =
   Π(nᵢ+2) over every tape but the longest; the rest is O(|Q| + Σnᵢ).
   Over it the kernel declines and the row runs the packed search. *)
let frontier_budget = 1 lsl 20

let make_frontier rt =
  let a = rt.fsa in
  let ids = Hashtbl.create 8 in
  Hashtbl.replace ids 0 0;
  let move_id (tr : Fsa.transition) =
    let mask = ref 0 in
    Array.iteri (fun i m -> if m <> 0 then mask := !mask lor (1 lsl i)) tr.moves;
    match Hashtbl.find_opt ids !mask with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.replace ids !mask id;
        id
  in
  let move_ids = Array.map move_id a.transitions in
  let masks = Array.make (Hashtbl.length ids) 0 in
  Hashtbl.iter (fun mask id -> masks.(id) <- mask) ids;
  let id_bits = ref 0 in
  while 1 lsl !id_bits < Array.length masks do
    incr id_bits
  done;
  let id_bits = !id_bits in
  let pack idxs =
    Array.map (fun t -> (a.transitions.(t).dst lsl id_bits) lor move_ids.(t)) idxs
  in
  let succ_sparse = Hashtbl.create (Hashtbl.length rt.sparse) in
  Hashtbl.iter (fun key idxs -> Hashtbl.replace succ_sparse key (pack idxs)) rt.sparse;
  { succ = Array.map pack rt.dense; succ_sparse; masks; id_bits }

(* Built lazily, because Generate builds a private index for each
   specialisation it memoizes and never runs this kernel on it; the slot
   is filled like the DFA slot. *)
let frontier_table rt =
  match Atomic.get rt.frontier with
  | Some f -> f
  | None ->
      let f = make_frontier rt in
      if Atomic.compare_and_set rt.frontier None (Some f) then f
      else Option.get (Atomic.get rt.frontier)

(* The index of the bit set in [b]: 2 has order 66 modulo the prime 67,
   so 2ⁱ mod 67 differs for every bit i < 62; bit 62 is the sign bit. *)
let bit_table =
  let t = Array.make 67 0 in
  for i = 0 to 61 do
    t.((1 lsl i) mod 67) <- i
  done;
  t

let bit_index b = if b < 0 then 62 else Array.unsafe_get bit_table (b mod 67)

let rec cell_empty sc o n = n = 0 || (sc.(o) = 0 && cell_empty sc (o + 1) (n - 1))

let frontier_accepts rt (ws : string array) =
  let a = rt.fsa in
  let k = a.arity in
  let words = (a.num_states + 62) / 63 in
  let long = ref (-1) in
  for i = 0 to k - 1 do
    if !long < 0 || String.length ws.(i) > String.length ws.(!long) then long := i
  done;
  let long = !long in
  let levels = k + 1 in
  (* A slice cell is the mixed-radix number of the other tapes' positions. *)
  let cells = ref 1 and fits = ref true and chars = ref 0 in
  for i = 0 to k - 1 do
    let d = String.length ws.(i) + 2 in
    chars := !chars + d;
    if i <> long then
      if !cells > frontier_budget / d then fits := false else cells := !cells * d
  done;
  let cells = !cells in
  let f = frontier_table rt in
  let nm = Array.length f.masks in
  (* One scratch array: the ring's bitsets, its touched lists and their
     counts, the worklist, where each move id sends a cell from each
     slot, each tape's code contribution at every head position, and
     each other tape's radix and code offset. *)
  let o_touched = levels * cells * words in
  let o_count = o_touched + (levels * cells) in
  let o_stack = o_count + levels in
  let o_move = o_stack + a.num_states in
  let o_codes = o_move + (2 * levels * nm) in
  let o_others = o_codes + !chars in
  let total = o_others + (2 * k) in
  if (not !fits) || total > frontier_budget then None
  else begin
    let sc = Array.make total 0 in
    let o_long = ref 0 and no = ref 0 and off = ref o_codes and stride = ref 1 in
    let strides = Array.make k 0 in
    for i = 0 to k - 1 do
      let w = ws.(i) in
      let n = String.length w and wt = rt.weights.(i) in
      sc.(!off) <- rt.lend_rank * wt;
      for p = 1 to n do
        sc.(!off + p) <- A.rank a.sigma (String.unsafe_get w (p - 1)) * wt
      done;
      sc.(!off + n + 1) <- rt.rend_rank * wt;
      if i = long then o_long := !off
      else begin
        sc.(o_others + (2 * !no)) <- n + 2;
        sc.(o_others + (2 * !no) + 1) <- !off;
        incr no;
        strides.(i) <- !stride;
        stride := !stride * (n + 2)
      end;
      off := !off + n + 2
    done;
    let no = !no and o_long = !o_long in
    (* Move id m sends a cell of ring slot r [shift] cells further, into
       slot [r']. *)
    Array.iteri
      (fun m mask ->
        let inc = ref 0 and delta = ref 0 in
        for i = 0 to k - 1 do
          if mask land (1 lsl i) <> 0 then begin
            incr inc;
            delta := !delta + strides.(i)
          end
        done;
        for r = 0 to levels - 1 do
          let r' = (r + !inc) mod levels in
          let o = o_move + (2 * ((r * nm) + m)) in
          sc.(o) <- ((r' - r) * cells) + !delta;
          sc.(o + 1) <- r'
        done)
      f.masks;
    let id_mask = (1 lsl f.id_bits) - 1 in
    (* The start configuration: every head on ⊢, level 0, cell 0. *)
    sc.(a.start / 63) <- 1 lsl (a.start mod 63);
    sc.(o_count) <- 1;
    let pending = ref 1 in
    let accepted = ref false in
    let s = ref 0 and r = ref 0 in
    while (not !accepted) && !pending > 0 do
      let r0 = !r in
      let n = sc.(o_count + r0) in
      let i = ref 0 in
      while (not !accepted) && !i < n do
        let fc = sc.(o_touched + (r0 * cells) + !i) in
        incr i;
        (* Decode the heads and the symbol code under them. *)
        let rest = ref (fc - (r0 * cells)) and sum = ref 0 and code = ref 0 in
        for j = 0 to no - 1 do
          let o = o_others + (2 * j) in
          let p =
            if j = no - 1 then !rest
            else begin
              let d = sc.(o) in
              let p = !rest mod d in
              rest := !rest / d;
              p
            end
          in
          sum := !sum + p;
          code := !code + sc.(sc.(o + 1) + p)
        done;
        if long >= 0 then code := !code + sc.(o_long + !s - !sum);
        let code = !code in
        let base = fc * words in
        let top = ref o_stack in
        for j = 0 to words - 1 do
          let w = ref sc.(base + j) in
          while !w <> 0 do
            let b = !w land - !w in
            sc.(!top) <- (j * 63) + bit_index b;
            incr top;
            w := !w lxor b
          done
        done;
        while (not !accepted) && !top > o_stack do
          decr top;
          let q = sc.(!top) in
          let key = (q * rt.vec_count) + code in
          let succ =
            if rt.use_dense then f.succ.(key)
            else
              Option.value ~default:no_transitions
                (Hashtbl.find_opt f.succ_sparse key)
          in
          if Array.length succ = 0 then begin
            if a.finals.(q) then accepted := true
          end
          else
            for e = 0 to Array.length succ - 1 do
              let x = succ.(e) in
              let dst = x lsr f.id_bits and m = x land id_mask in
              let b = 1 lsl (dst mod 63) in
              if m = 0 then begin
                let o = base + (dst / 63) in
                let old = sc.(o) in
                if old land b = 0 then begin
                  sc.(o) <- old lor b;
                  sc.(!top) <- dst;
                  incr top
                end
              end
              else begin
                let om = o_move + (2 * ((r0 * nm) + m)) in
                let tfc = fc + sc.(om) in
                let tbase = tfc * words in
                let o = tbase + (dst / 63) in
                let old = sc.(o) in
                if old land b = 0 then begin
                  if cell_empty sc tbase words then begin
                    let r' = sc.(om + 1) in
                    let c = o_count + r' in
                    sc.(o_touched + (r' * cells) + sc.(c)) <- tfc;
                    sc.(c) <- sc.(c) + 1;
                    incr pending
                  end;
                  sc.(o) <- old lor b
                end
              end
            done
        done;
        for j = base to base + words - 1 do
          sc.(j) <- 0
        done
      done;
      pending := !pending - n;
      sc.(o_count + r0) <- 0;
      incr s;
      r := if r0 + 1 = levels then 0 else r0 + 1
    done;
    Some !accepted
  end

(* ------------------------------------------------------------------ *)
(* The packed acceptance search (Theorem 3.3 over int keys).  Visited is
   a flat bitmap when the key space fits the budget, the open-addressing
   int set otherwise.  Returns None when the input is not packable or
   the FSA not indexable; Run.accepts then keeps the naive search. *)

let bitmap_budget = 1 lsl 24 (* bits: a 2 MB bitmap at most *)

(* The general two-way search: depth-first over packed keys with a
   visited set (flat bitmap when the key space fits the budget, the
   open-addressing int set otherwise). *)
let twoway_accepts rt (a : Fsa.t) l codes tdelta =
  let visit =
    if l.total <= bitmap_budget then begin
      let bm = Bytes.make ((l.total + 7) / 8) '\000' in
      fun k ->
        let byte = k lsr 3 and bit = 1 lsl (k land 7) in
        let cur = Char.code (Bytes.unsafe_get bm byte) in
        if cur land bit <> 0 then false
        else begin
          Bytes.unsafe_set bm byte (Char.unsafe_chr (cur lor bit));
          true
        end
    end
    else
      let s = Int_set.create () in
      fun k -> Int_set.add s k
  in
  let stack = ref (Array.make 1024 0) in
  let top = ref 0 in
  let push k =
    if !top = Array.length !stack then begin
      let bigger = Array.make (2 * !top) 0 in
      Array.blit !stack 0 bigger 0 !top;
      stack := bigger
    end;
    !stack.(!top) <- k;
    incr top
  in
  let pos = Array.make a.arity 0 in
  let start = a.start in
  ignore (visit start);
  push start;
  let accepted = ref false in
  while (not !accepted) && !top > 0 do
    decr top;
    let key = !stack.(!top) in
    let state = unpack_into l key pos in
    let code = ref 0 in
    Array.iteri
      (fun i p -> code := !code + (codes.(i).(p) * rt.weights.(i)))
      pos;
    let trs = transitions_for rt ~state ~code:!code in
    if Array.length trs = 0 then begin
      if a.finals.(state) then accepted := true
    end
    else
      Array.iter
        (fun t ->
          let succ = key + tdelta.(t) in
          if visit succ then push succ)
        trs
  done;
  !accepted

(* The DFA kernel (Theorem 6.1 at runtime).  A one-tape one-way
   automaton is determinized once, through the same NFA the Theorem 6.1
   round trip uses: stationary closures folded into each consuming move,
   an accept sink for halting mid-string, finality decided by halting on
   ⊣.  Each row is then one table lookup per character, stopping early
   in the dead state or the accept sink.  An automaton with more than
   [dfa_budget] states, or whose DFA would have more, records Over_budget
   and stays on the frontier kernel.  The budget bounds the work a
   failed construction wastes and the memory the index cache holds: a
   DFA takes at most 1024 × (|Σ| + 4) words, 64 KB over DNA, so the 256
   cached indices hold at most 16 MB of tables.  The slot is written
   once by compare-and-set: racing builders converge on the first result
   and readers never lock. *)
let dfa_budget = 1024

let make_dfa (a : Fsa.t) =
  match
    if a.num_states > dfa_budget then None
    else
      Strdb_automata.Dfa.determinize ~max_states:dfa_budget a.sigma
        (Oneway.to_nfa a)
  with
  | None -> Over_budget
  | Some d ->
      Built
        {
          table = d;
          settled = Array.mapi (fun q row -> Array.for_all (( = ) q) row) d.delta;
        }

(* The DFA of [rt]'s automaton when the DFA kernel applies: one tape,
   one-way. *)
let dfa_kernel rt =
  if not (rt.oneway && rt.fsa.Fsa.arity = 1) then None
  else
    let slot =
      match Atomic.get rt.dfa with
      | Unbuilt ->
          let made = make_dfa rt.fsa in
          if Atomic.compare_and_set rt.dfa Unbuilt made then made
          else Atomic.get rt.dfa
      | slot -> slot
    in
    match slot with Built d -> Some d | Unbuilt | Over_budget -> None

let dfa_accepts { table = d; settled } w =
  let q = ref d.start and i = ref 0 in
  while !i < String.length w && not settled.(!q) do
    q := d.delta.(!q).(A.rank d.sigma w.[!i]);
    incr i
  done;
  d.finals.(!q)

(* The packed search over int keys for two-way FSAs and for one-way
   rows over the frontier budget: None when the input is not packable. *)
let packed_accepts rt (a : Fsa.t) ws0 =
  let ws = Array.of_list ws0 in
  let lens = Array.map String.length ws in
  match layout a lens with
  | None -> None
  | Some l ->
      (* Per-tape symbol ranks at every head position: turns the
         symbol vector under the heads into plain int lookups. *)
      let codes =
        Array.map
          (fun w ->
            let n = String.length w in
            Array.init (n + 2) (fun j ->
                if j = 0 then rt.lend_rank
                else if j = n + 1 then rt.rend_rank
                else A.rank a.sigma w.[j - 1]))
          ws
      in
      (* Applying transition t to a packed key is adding a constant. *)
      let tdelta =
        Array.map
          (fun (tr : Fsa.transition) ->
            let d = ref (tr.dst - tr.src) in
            Array.iteri (fun i m -> d := !d + (m * l.steps.(i))) tr.moves;
            !d)
          a.transitions
      in
      Some (twoway_accepts rt a l codes tdelta)

let accepts_indexed rt ws0 =
  let a = rt.fsa in
  if not (indexable rt) then None
  else if rt.oneway then
    match (dfa_kernel rt, ws0) with
    | Some d, [ w ] -> Some (dfa_accepts d w)
    | _ -> (
        (* A row over the frontier budget runs the packed search,
           whose cost follows the configurations it reaches. *)
        match frontier_accepts rt (Array.of_list ws0) with
        | None -> packed_accepts rt a ws0
        | decided -> decided)
  else packed_accepts rt a ws0

let try_accepts (a : Fsa.t) ws0 = accepts_indexed (index a) ws0

(* Which acceptance kernel [try_accepts] would run for this automaton —
   for Eval.explain and the CLI. *)
let kernel_name (a : Fsa.t) =
  let rt = index a in
  if not (indexable rt) then "naive search"
  else
    match dfa_kernel rt with
    | Some d -> Printf.sprintf "one-way DFA, %d states" d.table.num_states
    | None -> if rt.oneway then "one-way frontier" else "two-way packed"
