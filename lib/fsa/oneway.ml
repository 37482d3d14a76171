module A = Strdb_util.Alphabet
module Nfa = Strdb_automata.Nfa

let to_nfa (a : Fsa.t) =
  if a.arity <> 1 then invalid_arg "Oneway.to_nfa: expected a 1-FSA";
  if Fsa.bidirectional_tapes a <> [] then
    invalid_arg "Oneway.to_nfa: expected a unidirectional FSA";
  let n = a.num_states in
  let chars = Array.of_list (A.chars a.sigma) in
  let k = Array.length chars in
  (* Symbols by rank: the characters, then ⊢ = k, then ⊣ = k + 1.  Per
     state and symbol: the stationary successors, the advancing ones, and
     whether any transition reads the symbol at all. *)
  let width = k + 2 in
  let rank = function
    | Symbol.Chr c -> A.rank a.sigma c
    | Symbol.Lend -> k
    | Symbol.Rend -> k + 1
  in
  let stays = Array.make (n * width) [] in
  let advances = Array.make (n * width) [] in
  let reads = Array.make (n * width) false in
  Array.iter
    (fun (tr : Fsa.transition) ->
      let i = (tr.src * width) + rank tr.read.(0) in
      reads.(i) <- true;
      if tr.moves.(0) = 0 then stays.(i) <- tr.dst :: stays.(i)
      else advances.(i) <- tr.dst :: advances.(i))
    a.transitions;
  (* [cross s q]: from q over symbol s, the states one advancing move
     after the stationary closure, and whether some closure state halts —
     is final with nothing to read s, which accepts the rest of the input
     unread.  Stamps keep each call linear in the closure. *)
  let closed = Array.make n (-1) and entered = Array.make n (-1) in
  let stamp = ref 0 in
  let cross s q =
    incr stamp;
    let st = !stamp in
    let next = ref [] and halts = ref false in
    let rec visit p =
      if closed.(p) <> st then begin
        closed.(p) <- st;
        let i = (p * width) + s in
        if a.finals.(p) && not reads.(i) then halts := true;
        List.iter
          (fun q' ->
            if entered.(q') <> st then begin
              entered.(q') <- st;
              next := q' :: !next
            end)
          advances.(i);
        List.iter visit stays.(i)
      end
    in
    visit q;
    (!next, !halts)
  in
  (* NFA states: the FSA's states (head on the next unread cell), then an
     absorbing accept sink, then a fresh start that crosses ⊢. *)
  let sink = n and start = n + 1 in
  let edges = ref [] and finals = ref [ sink ] in
  let arrive p l (next, halts) =
    List.iter (fun q -> edges := (p, l, q) :: !edges) next;
    if halts then edges := (p, l, sink) :: !edges
  in
  arrive start None (cross k a.start);
  for q = 0 to n - 1 do
    Array.iteri (fun r c -> arrive q (Some c) (cross r q)) chars;
    (* ⊣ cannot be consumed: halting on it is what makes q final. *)
    if snd (cross (k + 1) q) then finals := q :: !finals
  done;
  Array.iter (fun c -> edges := (sink, Some c, sink) :: !edges) chars;
  { Nfa.num_states = n + 2; start; finals = !finals; edges = !edges }
