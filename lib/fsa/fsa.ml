type transition = {
  src : int;
  read : Symbol.t array;
  dst : int;
  moves : int array;
}

type t = {
  sigma : Strdb_util.Alphabet.t;
  arity : int;
  num_states : int;
  start : int;
  finals : bool array;
  transitions : transition array;
  by_src : int list array;
}

exception Ill_formed of string

let fail fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let make ~sigma ~arity ~num_states ~start ~finals ~transitions =
  if arity < 0 then fail "negative arity";
  if num_states < 1 then fail "a k-FSA needs at least one state";
  if start < 0 || start >= num_states then fail "start state out of range";
  let fin = Array.make num_states false in
  List.iter
    (fun q ->
      if q < 0 || q >= num_states then fail "final state %d out of range" q;
      fin.(q) <- true)
    finals;
  List.iteri
    (fun idx tr ->
      if tr.src < 0 || tr.src >= num_states then
        fail "transition %d: source state out of range" idx;
      if tr.dst < 0 || tr.dst >= num_states then
        fail "transition %d: destination state out of range" idx;
      if Array.length tr.read <> arity then
        fail "transition %d: read vector has arity %d, expected %d" idx
          (Array.length tr.read) arity;
      if Array.length tr.moves <> arity then
        fail "transition %d: move vector has arity %d, expected %d" idx
          (Array.length tr.moves) arity;
      Array.iteri
        (fun i d ->
          if d < -1 || d > 1 then fail "transition %d: move %d on tape %d" idx d i;
          (match tr.read.(i) with
          | Symbol.Chr c ->
              if not (Strdb_util.Alphabet.mem sigma c) then
                fail "transition %d: character %C outside the alphabet" idx c
          | Symbol.Lend ->
              if d = -1 then
                fail "transition %d: moves left off the left endmarker (tape %d)"
                  idx i
          | Symbol.Rend ->
              if d = 1 then
                fail
                  "transition %d: moves right off the right endmarker (tape %d)"
                  idx i))
        tr.moves)
    transitions;
  let transitions = Array.of_list transitions in
  let by_src = Array.make num_states [] in
  Array.iteri (fun i tr -> by_src.(tr.src) <- i :: by_src.(tr.src)) transitions;
  Array.iteri (fun q is -> by_src.(q) <- List.rev is) by_src;
  { sigma; arity; num_states; start; finals = fin; transitions; by_src }

let transition ~src ~read ~dst ~moves =
  { src; read = Array.of_list read; dst; moves = Array.of_list moves }

let size t = Array.length t.transitions

(* Memos keyed on an automaton's identity compare with [==] and hash
   its sizes: a few nanoseconds, where [Hashtbl.hash] on a whole
   automaton costs over 100 ns and, reading only a bounded prefix of
   it, still puts equal-sized automata in one bucket. *)
let size_hash t = (((t.num_states * 65599) + size t) * 31) + t.arity

let is_final t q = t.finals.(q)

let finals_list t =
  let acc = ref [] in
  for q = t.num_states - 1 downto 0 do
    if t.finals.(q) then acc := q :: !acc
  done;
  !acc

let outgoing t q = List.map (fun i -> t.transitions.(i)) t.by_src.(q)
let is_stationary tr = Array.for_all (fun d -> d = 0) tr.moves

let tape_bidirectional t i =
  Array.exists (fun tr -> tr.moves.(i) = -1) t.transitions

let bidirectional_tapes t =
  List.filter (tape_bidirectional t) (List.init t.arity (fun i -> i))

let is_right_restricted t = List.length (bidirectional_tapes t) <= 1

let disregard t l =
  if l < 0 || l >= t.arity then invalid_arg "Fsa.disregard: tape out of range";
  let transitions =
    Array.to_list t.transitions
    |> List.map (fun tr ->
           let read = Array.copy tr.read and moves = Array.copy tr.moves in
           read.(l) <- Symbol.Lend;
           moves.(l) <- 0;
           { tr with read; moves })
  in
  make ~sigma:t.sigma ~arity:t.arity ~num_states:t.num_states ~start:t.start
    ~finals:(finals_list t) ~transitions

(* Plain worklist over the [seen] array: each state is pushed at most
   once and each transition inspected once, so reachability is
   O(states + transitions). *)
let saturate seen succs roots =
  let work = ref [] in
  let mark q =
    if not seen.(q) then begin
      seen.(q) <- true;
      work := q :: !work
    end
  in
  List.iter mark roots;
  let rec drain () =
    match !work with
    | [] -> ()
    | q :: rest ->
        work := rest;
        succs q mark;
        drain ()
  in
  drain ()

let forward_reachable t =
  let seen = Array.make t.num_states false in
  saturate seen
    (fun q mark -> List.iter (fun i -> mark t.transitions.(i).dst) t.by_src.(q))
    [ t.start ];
  seen

let reverse_reachable t =
  let preds = Array.make t.num_states [] in
  Array.iter (fun tr -> preds.(tr.dst) <- tr.src :: preds.(tr.dst)) t.transitions;
  let seen = Array.make t.num_states false in
  saturate seen (fun q mark -> List.iter mark preds.(q)) (finals_list t);
  seen

let useful_states t =
  let fwd = forward_reachable t and bwd = reverse_reachable t in
  Array.init t.num_states (fun q -> fwd.(q) && bwd.(q))

(* A transition from a final state into a useless state is what keeps
   that final state from halting, so it cannot simply be dropped: it is
   redirected to one rejecting sink, numbered last.  Every other
   transition into a useless state is dropped. *)
let trim t =
  let useful = useful_states t in
  useful.(t.start) <- true;
  let remap = Array.make t.num_states (-1) in
  let next = ref 0 in
  for q = 0 to t.num_states - 1 do
    if useful.(q) then begin
      remap.(q) <- !next;
      incr next
    end
  done;
  let sink = !next in
  let transitions =
    Array.to_list t.transitions
    |> List.filter_map (fun tr ->
           if not useful.(tr.src) then None
           else if useful.(tr.dst) then
             Some { tr with src = remap.(tr.src); dst = remap.(tr.dst) }
           else if t.finals.(tr.src) then
             Some { tr with src = remap.(tr.src); dst = sink }
           else None)
  in
  let num_states =
    if List.exists (fun tr -> tr.dst = sink) transitions then sink + 1 else sink
  in
  let finals =
    finals_list t |> List.filter (fun q -> useful.(q)) |> List.map (fun q -> remap.(q))
  in
  make ~sigma:t.sigma ~arity:t.arity ~num_states ~start:remap.(t.start)
    ~finals ~transitions

let union_states a b =
  if not (Strdb_util.Alphabet.equal a.sigma b.sigma) then
    invalid_arg "Fsa.union_states: different alphabets";
  if a.arity <> b.arity then invalid_arg "Fsa.union_states: different arities";
  let offset = a.num_states in
  let shift tr = { tr with src = tr.src + offset; dst = tr.dst + offset } in
  let transitions =
    Array.to_list a.transitions @ List.map shift (Array.to_list b.transitions)
  in
  let finals = finals_list a @ List.map (fun q -> q + offset) (finals_list b) in
  let combined =
    make ~sigma:a.sigma ~arity:a.arity ~num_states:(a.num_states + b.num_states)
      ~start:a.start ~finals ~transitions
  in
  (combined, offset, fun q -> q + offset)

let map_states t ~num_states ~f ~start ~finals =
  let transitions =
    Array.to_list t.transitions
    |> List.map (fun tr -> { tr with src = f tr.src; dst = f tr.dst })
  in
  make ~sigma:t.sigma ~arity:t.arity ~num_states ~start ~finals ~transitions

let pp ppf t =
  Format.fprintf ppf "@[<v>%d-FSA: %d states, start %d, finals {%s}, %d transitions"
    t.arity t.num_states t.start
    (String.concat "," (List.map string_of_int (finals_list t)))
    (size t);
  Array.iter
    (fun tr ->
      Format.fprintf ppf "@,  %d -[" tr.src;
      Array.iteri
        (fun i s ->
          if i > 0 then Format.pp_print_char ppf ' ';
          Format.fprintf ppf "%a%s" Symbol.pp s
            (match tr.moves.(i) with -1 -> "←" | 1 -> "→" | _ -> "·"))
        tr.read;
      Format.fprintf ppf "]-> %d" tr.dst)
    t.transitions;
  Format.fprintf ppf "@]"
