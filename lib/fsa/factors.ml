module A = Strdb_util.Alphabet

type verdict = Top | Factors of string list

let max_space = 1 lsl 16

(* The KMP ("contains g") DFA transition table over alphabet ranks:
   [delta.(s * base + r)] is the longest suffix of the consumed text
   that is a prefix of [g] after reading the rank-[r] character in
   state [s], for [0 <= s < q]; value [q] means [g] has occurred. *)
let kmp_delta sigma g =
  let base = A.size sigma in
  let q = String.length g in
  let delta = Array.make (q * base) 0 in
  let rank_of = Array.map (fun c -> A.rank sigma c) (Array.init q (String.get g)) in
  (* state 0 *)
  for r = 0 to base - 1 do
    delta.(r) <- (if r = rank_of.(0) then 1 else 0)
  done;
  (* state s > 0, with x = the failure state of s *)
  let x = ref 0 in
  for s = 1 to q - 1 do
    for r = 0 to base - 1 do
      delta.((s * base) + r) <-
        (if r = rank_of.(s) then s + 1 else delta.((!x * base) + r))
    done;
    x := delta.((!x * base) + rank_of.(s))
  done;
  delta

(* Is there a path from the start to a final state along which the
   consumed characters avoid [g]?  The product walk advances the KMP
   state only on consuming transitions (read a character, move right);
   stationary re-reads and endmarker reads leave it unchanged.  States
   where the gram completes are dropped — those paths contain [g]. *)
let avoidable fsa delta base q =
  let n = fsa.Fsa.num_states in
  let visited = Bytes.make (n * q) '\000' in
  let stack = ref [ (fsa.Fsa.start * q) + 0 ] in
  Bytes.set visited ((fsa.Fsa.start * q) + 0) '\001';
  let found = ref false in
  while (not !found) && !stack <> [] do
    match !stack with
    | [] -> ()
    | key :: rest ->
        stack := rest;
        let s = key / q and k = key mod q in
        if Fsa.is_final fsa s then found := true
        else
          List.iter
            (fun t ->
              let k' =
                match t.Fsa.read.(0) with
                | Symbol.Chr c when t.Fsa.moves.(0) = 1 ->
                    delta.((k * base) + A.rank fsa.Fsa.sigma c)
                | _ -> k
              in
              if k' < q then begin
                let key' = (t.Fsa.dst * q) + k' in
                if Bytes.get visited key' = '\000' then begin
                  Bytes.set visited key' '\001';
                  stack := key' :: !stack
                end
              end)
            (Fsa.outgoing fsa s)
  done;
  !found

let in_scope ~q fsa =
  q >= 1 && fsa.Fsa.arity = 1
  && Fsa.bidirectional_tapes fsa = []
  &&
  let base = A.size fsa.Fsa.sigma in
  let rec pow acc i = if i = 0 then acc else pow (acc * base) (i - 1) in
  pow 1 q <= max_space

let is_necessary ~q fsa g =
  in_scope ~q fsa
  && String.length g = q
  && A.contains_string fsa.Fsa.sigma g
  && not (avoidable fsa (kmp_delta fsa.Fsa.sigma g) (A.size fsa.Fsa.sigma) q)

(* The characters consumed along one start-to-final path of the
   transition graph, the path consuming the fewest (a 0-1 breadth-first
   search: consuming transitions cost 1, all others 0), or [None] when
   no final state is reachable.  The path's prefix up to its first
   final state avoids every gram its string does not contain, so only
   that string's grams can be necessary. *)
let witness fsa =
  let n = fsa.Fsa.num_states in
  let dist = Array.make n max_int and via = Array.make n None in
  let settled = Array.make n false in
  let consumes t =
    t.Fsa.moves.(0) = 1
    && match t.Fsa.read.(0) with Symbol.Chr _ -> true | _ -> false
  in
  let rec path s acc =
    match via.(s) with
    | None -> acc
    | Some t ->
        path t.Fsa.src
          (match t.Fsa.read.(0) with
          | Symbol.Chr c when consumes t -> c :: acc
          | _ -> acc)
  in
  (* [layer] holds states at distance [d], [next] those at [d + 1] *)
  let rec search layer next =
    match (layer, next) with
    | [], [] -> None
    | [], next -> search next []
    | s :: layer, next when settled.(s) -> search layer next
    | s :: layer, next ->
        settled.(s) <- true;
        if Fsa.is_final fsa s then
          Some (String.of_seq (List.to_seq (path s [])))
        else
          let layer, next =
            List.fold_left
              (fun (layer, next) t ->
                let w = if consumes t then 1 else 0 in
                let d = t.Fsa.dst in
                if dist.(s) + w < dist.(d) then begin
                  dist.(d) <- dist.(s) + w;
                  via.(d) <- Some t;
                  if w = 0 then (d :: layer, next) else (layer, d :: next)
                end
                else (layer, next))
              (layer, next) (Fsa.outgoing fsa s)
          in
          search layer next
  in
  dist.(fsa.Fsa.start) <- 0;
  search [ fsa.Fsa.start ] []

let necessary ~q fsa =
  if not (in_scope ~q fsa) then Top
  else begin
    let sigma = fsa.Fsa.sigma in
    let rec all q =
      if q = 0 then [ "" ]
      else
        List.concat_map
          (fun c -> List.map (fun g -> String.make 1 c ^ g) (all (q - 1)))
          (A.chars sigma)
    in
    (* The grams to test, ascending in rank order: the witness string's,
       or all of Σ^q when no final state is reachable. *)
    let grams =
      match witness fsa with
      | None -> all q
      | Some w ->
          let ranks g = List.of_seq (Seq.map (A.rank sigma) (String.to_seq g)) in
          List.init (max 0 (String.length w - q + 1)) (fun i -> String.sub w i q)
          |> List.map (fun g -> (ranks g, g))
          |> List.sort_uniq compare |> List.map snd
    in
    match
      List.filter
        (fun g -> not (avoidable fsa (kmp_delta sigma g) (A.size sigma) q))
        grams
    with
    | [] -> Top
    | fs -> Factors fs
  end
