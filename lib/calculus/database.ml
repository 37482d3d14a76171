type tuple = string list

exception Schema_error of string

module SM = Map.Make (String)

(* [sorted] holds [tuples] as an array, for binary-search membership. *)
type relation = { arity : int; tuples : tuple list; sorted : tuple array }
type t = relation SM.t

(* The order [compare] gives tuples, without its polymorphic dispatch. *)
let compare_tuple = List.compare String.compare

let empty = SM.empty

let add db r ~arity tuples =
  List.iter
    (fun tup ->
      if List.length tup <> arity then
        raise
          (Schema_error
             (Printf.sprintf "relation %s: tuple of length %d, expected %d" r
                (List.length tup) arity)))
    tuples;
  let tuples = List.sort_uniq compare_tuple tuples in
  SM.add r { arity; tuples; sorted = Array.of_list tuples } db

let of_list bindings =
  List.fold_left
    (fun db (r, tuples) ->
      let arity = match tuples with [] -> 0 | t :: _ -> List.length t in
      add db r ~arity tuples)
    empty bindings

let get db r =
  match SM.find_opt r db with
  | Some rel -> rel
  | None -> raise (Schema_error ("unknown relation symbol " ^ r))

let find db r = (get db r).tuples
let arity db r = (get db r).arity

let mem db r tup =
  let a = (get db r).sorted in
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let c = compare_tuple tup a.(mid) in
    c = 0 || if c < 0 then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length a)

let relations db = SM.bindings db |> List.map (fun (r, rel) -> (r, rel.arity))

let max_string_length db =
  SM.fold
    (fun _ rel acc ->
      List.fold_left
        (fun acc tup -> max acc (Strdb_util.Strutil.longest tup))
        acc rel.tuples)
    db 0

let check_alphabet sigma db =
  SM.iter
    (fun _ rel ->
      List.iter
        (fun tup -> List.iter (Strdb_util.Alphabet.check_string sigma) tup)
        rel.tuples)
    db

let pp ppf db =
  Format.fprintf ppf "@[<v>";
  SM.iter
    (fun r rel ->
      Format.fprintf ppf "%s/%d:@," r rel.arity;
      List.iter
        (fun tup -> Format.fprintf ppf "  %a@," Strdb_util.Pretty.tuple tup)
        rel.tuples)
    db;
  Format.fprintf ppf "@]"
