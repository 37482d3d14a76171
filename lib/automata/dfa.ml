module A = Strdb_util.Alphabet

type t = {
  sigma : A.t;
  num_states : int;
  start : int;
  finals : bool array;
  delta : int array array;
}

(* Sets of NFA states as bitsets, [word] states to an int. *)
let word = Sys.int_size - 1

module Subsets = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  (* Every word of a subset of up to 256 × [word] states. *)
  let hash = Hashtbl.hash_param 256 256
end)

(* The states of a bitset. *)
let members_of (b : int array) =
  let acc = ref [] in
  Array.iteri
    (fun w x ->
      let x = ref x and q = ref (w * word) in
      while !x <> 0 do
        if !x land 1 <> 0 then acc := !q :: !acc;
        x := !x lsr 1;
        incr q
      done)
    b;
  Array.of_list !acc

(* The subset construction over bitsets.  Each NFA state's ε-closed
   successors on every character form one row of bitsets, built the
   first time the state shows up in a subset; a subset's successors on
   all characters are then the word-wise union of its members' rows.
   Subsets are interned by bitset and numbered in discovery order, and
   a FIFO queue fills their rows in that order.  Two canonicalisations keep the subsets few without changing
   their languages: states that neither read a character nor accept are
   dropped once their ε-moves are followed, and a subset holding a
   universal NFA state — final, with a self-loop on every character —
   accepts every suffix, so it is interned as that state alone (the
   accept sink of a halting automaton then costs one DFA state instead of
   one per subset that contains it). *)
let determinize ~max_states sigma (nfa : Nfa.t) =
  let k = A.size sigma in
  let n = nfa.num_states in
  let words = (n + word - 1) / word in
  let eps = Array.make n [] and on = Array.make (n * k) [] in
  List.iter
    (fun (p, l, q) ->
      match l with
      | None -> eps.(p) <- q :: eps.(p)
      | Some c when A.mem sigma c ->
          let i = (p * k) + A.rank sigma c in
          on.(i) <- q :: on.(i)
      | Some _ -> ())
    nfa.edges;
  let mark b off q =
    let w = off + (q / word) in
    b.(w) <- b.(w) lor (1 lsl (q mod word))
  in
  (* Mark the ε-closure of [qs] into [b] at word offset [off]. *)
  let close b off qs =
    let rec visit q =
      if b.(off + (q / word)) land (1 lsl (q mod word)) = 0 then begin
        mark b off q;
        List.iter visit eps.(q)
      end
    in
    List.iter visit qs
  in
  (* Live states read a character or accept; the others only pass ε-moves
     on, which the closure has already followed, so subsets drop them. *)
  let live = Array.make words 0 in
  Array.iteri (fun i qs -> if qs <> [] then mark live 0 (i / k)) on;
  let finals = Array.make words 0 and universal = Array.make words 0 in
  List.iter
    (fun q ->
      mark live 0 q;
      mark finals 0 q;
      if List.for_all (fun c -> List.mem q on.((q * k) + c)) (List.init k Fun.id)
      then mark universal 0 q)
    nfa.finals;
  let rows = Array.make n [||] in
  let row p =
    if Array.length rows.(p) = 0 then begin
      let r = Array.make (k * words) 0 in
      for c = 0 to k - 1 do
        close r (c * words) on.((p * k) + c)
      done;
      rows.(p) <- Array.mapi (fun j x -> x land live.(j mod words)) r
    end;
    rows.(p)
  in
  let ids = Subsets.create 64 in
  let pending = Queue.create () and accepting = ref [] in
  let next_id = ref 0 in
  (* The id of the subset [b], made canonical (mutates [b]); [None] when
     it is new and the budget is spent. *)
  let intern b =
    let w = ref 0 in
    while !w < words && b.(!w) land universal.(!w) = 0 do
      incr w
    done;
    if !w < words then begin
      let u = (members_of [| b.(!w) land universal.(!w) |]).(0) + (!w * word) in
      Array.fill b 0 words 0;
      mark b 0 u
    end;
    match Subsets.find_opt ids b with
    | Some id -> Some id
    | None when !next_id >= max_states -> None
    | None ->
        let id = !next_id in
        Queue.add (members_of b) pending;
        accepting := Array.exists2 (fun x f -> x land f <> 0) b finals :: !accepting;
        Subsets.add ids (Array.copy b) id;
        incr next_id;
        Some id
  in
  let start = Array.make words 0 in
  close start 0 [ nfa.start ];
  Array.iteri (fun w x -> start.(w) <- x land live.(w)) start;
  let ok = ref (intern start <> None) in
  let union = Array.make (k * words) 0 and scratch = Array.make words 0 in
  let delta = ref [] in
  while !ok && not (Queue.is_empty pending) do
    Array.fill union 0 (k * words) 0;
    Array.iter
      (fun p ->
        let r = row p in
        for j = 0 to (k * words) - 1 do
          union.(j) <- union.(j) lor r.(j)
        done)
      (Queue.pop pending);
    let succ = Array.make k 0 in
    for c = 0 to k - 1 do
      if !ok then begin
        Array.blit union (c * words) scratch 0 words;
        match intern scratch with Some id -> succ.(c) <- id | None -> ok := false
      end
    done;
    delta := succ :: !delta
  done;
  if not !ok then None
  else
    Some
      {
        sigma;
        num_states = !next_id;
        start = 0;
        finals = Array.of_list (List.rev !accepting);
        delta = Array.of_list (List.rev !delta);
      }

let of_nfa sigma nfa =
  match determinize ~max_states:max_int sigma nfa with
  | Some d -> d
  | None -> assert false

let of_regex sigma r = of_nfa sigma (Nfa.of_regex r)

let accepts t s =
  let q = ref t.start in
  String.iter (fun c -> q := t.delta.(!q).(A.rank t.sigma c)) s;
  t.finals.(!q)

let reachable_states t =
  let seen = Array.make t.num_states false in
  let rec go = function
    | [] -> ()
    | q :: rest ->
        let fresh =
          Array.to_list t.delta.(q) |> List.filter (fun p -> not seen.(p))
        in
        List.iter (fun p -> seen.(p) <- true) fresh;
        go (fresh @ rest)
  in
  seen.(t.start) <- true;
  go [ t.start ];
  seen

let num_reachable t =
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 (reachable_states t)

let minimize t =
  let k = A.size t.sigma in
  let reach = reachable_states t in
  (* Moore refinement: class.(q) starts as accepting/rejecting, then is
     refined by successor-class signatures until stable. *)
  let cls = Array.map (fun f -> if f then 1 else 0) t.finals in
  let changed = ref true in
  while !changed do
    changed := false;
    let sig_tbl = Hashtbl.create 16 in
    let next_cls = Array.make t.num_states 0 in
    let next_id = ref 0 in
    for q = 0 to t.num_states - 1 do
      if reach.(q) then begin
        let signature =
          (cls.(q), Array.init k (fun r -> cls.(t.delta.(q).(r))))
        in
        let id =
          match Hashtbl.find_opt sig_tbl signature with
          | Some id -> id
          | None ->
              let id = !next_id in
              incr next_id;
              Hashtbl.add sig_tbl signature id;
              id
        in
        next_cls.(q) <- id
      end
    done;
    (* Detect refinement: number of classes grew, or classes changed. *)
    let distinct_old =
      let s = Hashtbl.create 8 in
      Array.iteri (fun q c -> if reach.(q) then Hashtbl.replace s c ()) cls;
      Hashtbl.length s
    in
    if !next_id <> distinct_old then changed := true;
    Array.blit next_cls 0 cls 0 t.num_states
  done;
  (* Renumber classes contiguously with the start's class preserved. *)
  let class_of q = cls.(q) in
  let remap = Hashtbl.create 16 in
  let next = ref 0 in
  let id_of c =
    match Hashtbl.find_opt remap c with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add remap c i;
        i
  in
  let start = id_of (class_of t.start) in
  (* Walk reachable states to register classes and build rows. *)
  let rows = Hashtbl.create 16 in
  let fin = Hashtbl.create 16 in
  for q = 0 to t.num_states - 1 do
    if reach.(q) then begin
      let cq = id_of (class_of q) in
      if not (Hashtbl.mem rows cq) then begin
        let row = Array.init k (fun r -> id_of (class_of t.delta.(q).(r))) in
        Hashtbl.replace rows cq row;
        Hashtbl.replace fin cq t.finals.(q)
      end
    end
  done;
  let num_states = !next in
  let delta = Array.init num_states (fun c -> Hashtbl.find rows c) in
  let finals = Array.init num_states (fun c -> Hashtbl.find fin c) in
  { sigma = t.sigma; num_states; start; finals; delta }

let complement t = { t with finals = Array.map not t.finals }

let product combine a b =
  if not (A.equal a.sigma b.sigma) then
    invalid_arg "Dfa.product: different alphabets";
  let k = A.size a.sigma in
  let id qa qb = (qa * b.num_states) + qb in
  let num_states = a.num_states * b.num_states in
  let delta =
    Array.init num_states (fun q ->
        let qa = q / b.num_states and qb = q mod b.num_states in
        Array.init k (fun r -> id a.delta.(qa).(r) b.delta.(qb).(r)))
  in
  let finals =
    Array.init num_states (fun q ->
        let qa = q / b.num_states and qb = q mod b.num_states in
        combine a.finals.(qa) b.finals.(qb))
  in
  { sigma = a.sigma; num_states; start = id a.start b.start; finals; delta }

let inter = product ( && )
let union = product ( || )

let some_word t =
  (* BFS from the start, tracking a shortest witness per state. *)
  let k = A.size t.sigma in
  let seen = Array.make t.num_states false in
  let q = Queue.create () in
  Queue.add (t.start, []) q;
  seen.(t.start) <- true;
  let rec go () =
    if Queue.is_empty q then None
    else
      let state, path = Queue.pop q in
      if t.finals.(state) then
        Some (Strdb_util.Strutil.implode (List.rev path))
      else begin
        for r = 0 to k - 1 do
          let p = t.delta.(state).(r) in
          if not seen.(p) then begin
            seen.(p) <- true;
            Queue.add (p, A.nth t.sigma r :: path) q
          end
        done;
        go ()
      end
  in
  go ()

let is_empty t = some_word t = None

let difference_witness a b =
  let in_a_not_b = inter a (complement b) in
  let in_b_not_a = inter b (complement a) in
  match (some_word in_a_not_b, some_word in_b_not_a) with
  | None, None -> None
  | Some w, None | None, Some w -> Some w
  | Some w1, Some w2 ->
      Some (if String.length w1 <= String.length w2 then w1 else w2)

let equal a b = difference_witness a b = None
