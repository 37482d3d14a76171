(* Two implementations of the lazy-tape enumerator: the naive reference
   (string-valued committed prefixes, List.filter dispatch — the original
   code) and the fast runtime-backed one (interned prefix ids, indexed
   dispatch).  [accepted] picks per the Runtime toggle; the qcheck suite
   asserts they agree. *)

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
(* Fast implementation.

   Committed prefixes are interned in a pool: each prefix is an int id
   with a parent pointer and a last character, so committing a character
   is O(1) (no string copy) and node keys hash ids instead of string
   contents.  Strings materialize once, memoized, when a tuple is
   emitted or a head walks deep into the committed region. *)

module Pool = struct
  type t = {
    mutable parent : int array;
    mutable last : char array;
    mutable len : int array;
    mutable count : int;
    ext : (int * char, int) Hashtbl.t;  (* (parent, char) ↦ id *)
    strings : (int, string) Hashtbl.t;  (* memoized materializations *)
  }

  let create () =
    let p =
      {
        parent = Array.make 64 0;
        last = Array.make 64 '\000';
        len = Array.make 64 0;
        count = 1;  (* id 0: the empty prefix *)
        ext = Hashtbl.create 256;
        strings = Hashtbl.create 64;
      }
    in
    Hashtbl.replace p.strings 0 "";
    p

  let length p id = p.len.(id)

  let extend p id c =
    match Hashtbl.find_opt p.ext (id, c) with
    | Some j -> j
    | None ->
        let j = p.count in
        if j = Array.length p.parent then begin
          let n = 2 * j in
          let parent = Array.make n 0
          and last = Array.make n '\000'
          and len = Array.make n 0 in
          Array.blit p.parent 0 parent 0 j;
          Array.blit p.last 0 last 0 j;
          Array.blit p.len 0 len 0 j;
          p.parent <- parent;
          p.last <- last;
          p.len <- len
        end;
        p.parent.(j) <- id;
        p.last.(j) <- c;
        p.len.(j) <- p.len.(id) + 1;
        p.count <- j + 1;
        Hashtbl.replace p.ext (id, c) j;
        j

  let to_string p id =
    match Hashtbl.find_opt p.strings id with
    | Some s -> s
    | None ->
        let n = p.len.(id) in
        let b = Bytes.create n in
        let i = ref id in
        for q = n - 1 downto 0 do
          Bytes.set b q p.last.(!i);
          i := p.parent.(!i)
        done;
        let s = Bytes.unsafe_to_string b in
        Hashtbl.replace p.strings id s;
        s

  (* The character at 0-based position [q] (< length).  Heads usually sit
     near the frontier, so walk short distances; memoize a full
     materialization beyond that. *)
  let char_at p id q =
    let dist = p.len.(id) - 1 - q in
    if dist <= 8 then begin
      let i = ref id in
      for _ = 1 to dist do
        i := p.parent.(!i)
      done;
      p.last.(!i)
    end
    else (to_string p id).[q]
end

type ftape = { fcommitted : int; ffinished : bool; fpos : int }
type fnode = { fstate : int; ftapes : ftape array }

let fsymbol_under pool t =
  if t.fpos = 0 then Some Symbol.Lend
  else if t.fpos <= Pool.length pool t.fcommitted then
    Some (Symbol.Chr (Pool.char_at pool t.fcommitted (t.fpos - 1)))
  else if t.ffinished then Some Symbol.Rend
  else None

let fnode_key n =
  ( n.fstate,
    Array.to_list
      (Array.map (fun t -> (t.fcommitted, t.ffinished, t.fpos)) n.ftapes) )

(* The enumerator over [a] with its dispatch index [rt]. *)
let enumerate rt (a : Fsa.t) ~max_len =
  if max_len < 0 then invalid_arg "Generate.accepted: negative bound";
  let indexable = Runtime.indexable rt in
  let pool = Pool.create () in
  let sigma_chars = Strdb_util.Alphabet.chars a.sigma in
  let results = Hashtbl.create 64 in
  let seen = Hashtbl.create 1024 in
  let stack = ref [] in
  let push n =
    let k = fnode_key n in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      stack := n :: !stack
    end
  in
  push
    {
      fstate = a.start;
      ftapes = Array.make a.arity { fcommitted = 0; ffinished = false; fpos = 0 };
    };
  let emit n =
    let rec expand i acc =
      if i = a.arity then Hashtbl.replace results (List.rev acc) ()
      else
        let t = n.ftapes.(i) in
        let committed = Pool.to_string pool t.fcommitted in
        if t.ffinished then expand (i + 1) (committed :: acc)
        else
          let budget = max_len - String.length committed in
          let suffixes = Strdb_util.Strutil.all_strings_upto a.sigma (max budget 0) in
          List.iter (fun sfx -> expand (i + 1) ((committed ^ sfx) :: acc)) suffixes
    in
    expand 0 []
  in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest -> (
        stack := rest;
        let under = Array.map (fsymbol_under pool) n.ftapes in
        let frontier_tape =
          let idx = ref (-1) in
          Array.iteri (fun i s -> if !idx < 0 && s = None then idx := i) under;
          !idx
        in
        if frontier_tape >= 0 then begin
          let i = frontier_tape in
          let t = n.ftapes.(i) in
          let final = Fsa.is_final a n.fstate in
          let out = Runtime.outgoing rt n.fstate in
          let allowed sym =
            final
            || Array.exists (fun (tr : Fsa.transition) -> Symbol.equal tr.read.(i) sym) out
          in
          if allowed Symbol.Rend then begin
            let tapes_end = Array.copy n.ftapes in
            tapes_end.(i) <- { t with ffinished = true };
            push { n with ftapes = tapes_end }
          end;
          if Pool.length pool t.fcommitted < max_len then
            List.iter
              (fun c ->
                if allowed (Symbol.Chr c) then begin
                  let tapes_c = Array.copy n.ftapes in
                  tapes_c.(i) <- { t with fcommitted = Pool.extend pool t.fcommitted c };
                  push { n with ftapes = tapes_c }
                end)
              sigma_chars
        end
        else begin
          let under = Array.map Option.get under in
          let fire tr =
            let ftapes =
              Array.mapi (fun i t -> { t with fpos = t.fpos + tr.Fsa.moves.(i) }) n.ftapes
            in
            push { fstate = tr.Fsa.dst; ftapes }
          in
          let fired =
            if indexable then begin
              let ids =
                Runtime.transitions_for rt ~state:n.fstate
                  ~code:(Runtime.code_of_symbols rt under)
              in
              Array.iter (fun ti -> fire (Runtime.transition rt ti)) ids;
              Array.length ids > 0
            end
            else begin
              let any = ref false in
              Array.iter
                (fun (tr : Fsa.transition) ->
                  if Array.for_all2 Symbol.equal tr.read under then begin
                    any := true;
                    fire tr
                  end)
                (Runtime.outgoing rt n.fstate);
              !any
            end
          in
          if (not fired) && Fsa.is_final a n.fstate then emit n
        end)
  done;
  Hashtbl.fold (fun tup () acc -> tup :: acc) results [] |> List.sort compare

let accepted_fast a ~max_len = enumerate (Runtime.index a) a ~max_len

let accepted a ~max_len =
  if Runtime.enabled () then accepted_fast (Optimize.optimized a) ~max_len
  else accepted_naive a ~max_len

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

let outputs a ~inputs ~max_len =
  if Runtime.enabled () then
    let spec, rt =
      Strdb_util.Memo.find_or_add spec_cache (a, inputs) specialize_optimized
    in
    enumerate rt spec ~max_len
  else accepted_naive (Specialize.specialize a inputs) ~max_len

let is_empty_upto a ~max_len = accepted a ~max_len = []
