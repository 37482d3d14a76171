type t = {
  num_states : int;
  start : int;
  finals : int list;
  edges : (int * char option * int) list;
}

(* Thompson construction: each sub-automaton has a unique start and final. *)
let of_regex r =
  let counter = ref 0 in
  let fresh () =
    let s = !counter in
    incr counter;
    s
  in
  (* returns (start, final, edges) *)
  let rec build r =
    match r with
    | Regex.Empty ->
        let s = fresh () and f = fresh () in
        (s, f, [])
    | Regex.Eps ->
        let s = fresh () and f = fresh () in
        (s, f, [ (s, None, f) ])
    | Regex.Chr c ->
        let s = fresh () and f = fresh () in
        (s, f, [ (s, Some c, f) ])
    | Regex.Seq (a, b) ->
        let sa, fa, ea = build a in
        let sb, fb, eb = build b in
        (sa, fb, ((fa, None, sb) :: ea) @ eb)
    | Regex.Alt (a, b) ->
        let sa, fa, ea = build a in
        let sb, fb, eb = build b in
        let s = fresh () and f = fresh () in
        ( s,
          f,
          (s, None, sa) :: (s, None, sb) :: (fa, None, f) :: (fb, None, f)
          :: (ea @ eb) )
    | Regex.Star a ->
        let sa, fa, ea = build a in
        let s = fresh () and f = fresh () in
        (s, f, (s, None, sa) :: (s, None, f) :: (fa, None, sa) :: (fa, None, f) :: ea)
  in
  let start, final, edges = build r in
  { num_states = !counter; start; finals = [ final ]; edges }

module ISet = Set.Make (Int)

(* Subset simulation.  The ε-successors are tabulated once per call. *)
let accepts t s =
  let eps = Array.make t.num_states [] in
  List.iter (fun (p, l, q) -> if l = None then eps.(p) <- q :: eps.(p)) t.edges;
  let rec close frontier seen =
    match frontier with
    | [] -> seen
    | p :: rest ->
        let fresh = List.filter (fun q -> not (ISet.mem q seen)) eps.(p) in
        close (fresh @ rest) (List.fold_left (fun acc q -> ISet.add q acc) seen fresh)
  in
  let closure set = close (ISet.elements set) set in
  let step cur c =
    closure
      (List.fold_left
         (fun acc (p, l, q) ->
           if l = Some c && ISet.mem p cur then ISet.add q acc else acc)
         ISet.empty t.edges)
  in
  let cur = ref (closure (ISet.singleton t.start)) in
  String.iter (fun c -> cur := step !cur c) s;
  List.exists (fun q -> ISet.mem q !cur) t.finals

let reachable t =
  let succs = Hashtbl.create 16 in
  List.iter (fun (p, _, q) -> Hashtbl.add succs p q) t.edges;
  let rec go frontier seen =
    match frontier with
    | [] -> seen
    | s :: rest ->
        let nexts = Hashtbl.find_all succs s in
        let fresh = List.filter (fun q -> not (ISet.mem q seen)) nexts in
        go (fresh @ rest) (List.fold_left (fun acc q -> ISet.add q acc) seen fresh)
  in
  ISet.elements (go [ t.start ] (ISet.singleton t.start))

let size t = List.length t.edges
