type var = Window.var

type t =
  | Str of Sformula.t
  | Rel of string * var list
  | And of t * t
  | Not of t
  | Exists of var * t

let or_ a b = Not (And (Not a, Not b))
let implies a b = or_ (Not a) b
let forall x a = Not (Exists (x, Not a))
let exists_many xs a = List.fold_right (fun x b -> Exists (x, b)) xs a

let and_list = function
  | [] -> invalid_arg "Formula.and_list: empty conjunction"
  | f :: fs -> List.fold_left (fun a b -> And (a, b)) f fs

let rec collect_free bound = function
  | Str s -> List.filter (fun v -> not (List.mem v bound)) (Sformula.vars s)
  | Rel (_, args) -> List.filter (fun v -> not (List.mem v bound)) args
  | And (a, b) -> collect_free bound a @ collect_free bound b
  | Not a -> collect_free bound a
  | Exists (x, a) -> collect_free (x :: bound) a

let free_vars t = List.sort_uniq compare (collect_free [] t)

let rec is_pure = function
  | Str _ -> true
  | Rel _ -> false
  | And (a, b) -> is_pure a && is_pure b
  | Not a | Exists (_, a) -> is_pure a

let relation_symbols t =
  let rec go = function
    | Str _ -> []
    | Rel (r, args) -> [ (r, List.length args) ]
    | And (a, b) -> go a @ go b
    | Not a | Exists (_, a) -> go a
  in
  let syms = List.sort_uniq compare (go t) in
  let names = List.map fst syms in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Formula.relation_symbols: a symbol is used at two arities";
  syms

type checker = Sformula.t -> (var * string) list -> bool

let naive_checker = Naive.holds

(* The closure's memo is shared by every row of a negation filter, and
   the parallel evaluator runs those rows on pool domains; it is private
   to the closure, so it is not registered.  An entry carries the
   automaton already prepared for acceptance (optimized form and
   dispatch index), so a row takes this one lookup and no other. *)
let compiled_checker sigma =
  let memo =
    Strdb_util.Memo.create ~bound:64 ~hash:Hashtbl.hash
      ~equal:(fun a b -> compare a b = 0)
      ()
  in
  let prepare phi =
    let vars = Sformula.vars phi in
    (vars, Strdb_fsa.Run.prepare (Compile.compile sigma ~vars phi))
  in
  fun phi bindings ->
    let vars, prepared = Strdb_util.Memo.find_or_add memo phi prepare in
    let tuple =
      List.map
        (fun v ->
          match List.assoc_opt v bindings with
          | Some w -> w
          | None -> invalid_arg ("Formula: unbound string-formula variable " ^ v))
        vars
    in
    Strdb_fsa.Run.accepts_prepared prepared tuple

let eval ?(checker = naive_checker) sigma db ~max_len env phi =
  let domain = Strdb_util.Strutil.all_strings_upto sigma max_len in
  let lookup env x =
    match List.assoc_opt x env with
    | Some w -> w
    | None -> invalid_arg ("Formula.eval: unbound variable " ^ x)
  in
  let rec go env = function
    | Str s ->
        let bindings = List.map (fun v -> (v, lookup env v)) (Sformula.vars s) in
        checker s bindings
    | Rel (r, args) -> Database.mem db r (List.map (lookup env) args)
    | And (a, b) -> go env a && go env b
    | Not a -> not (go env a)
    | Exists (x, a) -> List.exists (fun w -> go ((x, w) :: env) a) domain
  in
  go env phi

let answers ?(checker = naive_checker) sigma db ~max_len ~free phi =
  if List.sort compare free <> free_vars phi then
    invalid_arg "Formula.answers: free variable list does not match the formula";
  let domain = Strdb_util.Strutil.all_strings_upto sigma max_len in
  let rec bind acc env = function
    | [] ->
        if eval ~checker sigma db ~max_len env phi then
          List.map (fun v -> List.assoc v env) free :: acc
        else acc
    | v :: rest ->
        List.fold_left (fun acc w -> bind acc ((v, w) :: env) rest) acc domain
  in
  bind [] [] free |> List.sort compare

let rec pp ppf = function
  | Str s -> Format.fprintf ppf "S{%a}" Sformula.pp s
  | Rel (r, args) -> Format.fprintf ppf "%s(%s)" r (String.concat "," args)
  | And (a, b) -> Format.fprintf ppf "(%a & %a)" pp a pp b
  | Not a -> Format.fprintf ppf "~%a" pp a
  | Exists (x, a) -> Format.fprintf ppf "(E %s. %a)" x pp a
