(* The working-table invariant of Eval's generator pipeline: every
   step's rows are duplicate-free, so execute dedups nothing until the
   final projection drops a column.  Random plans run each of their
   prefixes with [free] set to every column bound so far, a projection
   that keeps every column; [Eval.dedup_rows] is the oracle. *)
open Strdb
module F = Formula

let b = Alphabet.binary
let gen_short = QCheck.Gen.(string_size ~gen:Test_qcheck.gen_char (int_bound 3))

(* [r] binary, with diagonal pairs so that [r(x,x)] matches; [s] unary.
   Either may be empty. *)
let gen_db =
  let open QCheck.Gen in
  let pair =
    oneof [ map2 (fun u v -> [ u; v ]) gen_short gen_short; map (fun u -> [ u; u ]) gen_short ]
  in
  map2
    (fun r s -> Database.add (Database.add Database.empty "r" ~arity:2 r) "s" ~arity:1 s)
    (list_size (int_bound 6) pair)
    (list_size (int_bound 4) (map (fun u -> [ u ]) gen_short))

(* One or two relational atoms binding x (and maybe y), two filters on
   x, a certified generator of z (and u) from x, a negation over z, and
   sometimes ∃z, so that the final projection drops a column. *)
let gen_formula =
  let open QCheck.Gen in
  let rel r args = F.Rel (r, args) in
  let first = oneofl [ rel "r" [ "x"; "y" ]; rel "r" [ "x"; "x" ]; rel "r" [ "y"; "x" ]; rel "s" [ "x" ] ] in
  let second =
    opt (oneofl [ rel "s" [ "y" ]; rel "r" [ "y"; "y" ]; rel "r" [ "x"; "y" ]; rel "s" [ "x" ] ])
  in
  let filter = Test_qcheck.gen_sformula [ "x" ] in
  let generator = oneofl [ Combinators.equal_s "x" "z"; Combinators.concat3 "x" "u" "z" ] in
  let negation =
    oneofl
      [
        F.Not (rel "s" [ "z" ]);
        F.Not (rel "r" [ "x"; "z" ]);
        F.Not (rel "r" [ "z"; "z" ]);
        F.Not (F.Str (Combinators.equal_s "x" "z"));
      ]
  in
  map
    (fun ((a1, a2, f1, f2), (g, n, hide)) ->
      let conjs =
        (a1 :: Option.to_list a2) @ [ F.Str f1; F.Str f2; F.Str g; n ]
      in
      let body = List.fold_left (fun acc c -> F.And (acc, c)) (List.hd conjs) (List.tl conjs) in
      if hide then F.Exists ("z", body) else body)
    (pair (quad first second filter filter) (triple generator negation bool))

let arb_case =
  QCheck.make
    ~print:(fun (db, phi) ->
      Printf.sprintf "%s\n%s"
        (Strdb_util.Pretty.to_string F.pp phi)
        (Strdb_util.Pretty.to_string Database.pp db))
    QCheck.Gen.(pair gen_db gen_formula)

(* The columns a plan prefix has bound. *)
let bound_by steps =
  List.sort_uniq compare
    (List.concat_map
       (function
         | Plan.Join { args; _ } -> args
         | Plan.Gen { unknown; _ } -> unknown
         | Plan.FilterFsa _ | Plan.NegFilter _ -> [])
       steps)

let prefixes l = List.init (List.length l + 1) (fun k -> List.filteri (fun i _ -> i < k) l)

let execute (p : Plan.t) steps free =
  match Eval.execute { p with Plan.steps; free } with
  | Ok rows -> rows
  | Error e -> QCheck.Test.fail_reportf "execute failed: %s" e

(* Every prefix's rows are a set, and the answer is the deduplicated
   projection of the full pipeline's rows.  [generated] is called when
   a generator step emits rows. *)
let check_plan generated (p : Plan.t) =
  List.iter
    (fun steps ->
      let rows = List.map Array.of_list (execute p steps (bound_by steps)) in
      if Eval.dedup_rows rows <> rows then
        QCheck.Test.fail_reportf "duplicate rows after %d steps" (List.length steps);
      match List.rev steps with
      | Plan.Gen _ :: _ when rows <> [] -> generated ()
      | _ -> ())
    (prefixes p.Plan.steps);
  let cols = bound_by p.Plan.steps in
  let project row =
    let cells = List.combine cols row in
    List.map (fun v -> List.assoc v cells) p.Plan.free
  in
  let expected = List.sort_uniq compare (List.map project (execute p p.Plan.steps cols)) in
  if execute p p.Plan.steps p.Plan.free <> expected then
    QCheck.Test.fail_reportf "the answer is not the deduplicated projection"

let configs =
  List.concat_map (fun fuse -> List.map (fun index -> (fuse, index)) [ true; false ]) [ true; false ]

let invariant_props =
  [
    Test_qcheck.prop_witnessed ~count:100 ~what:"whose generator emitted rows"
      "every plan prefix's rows are duplicate-free, under fuse/index toggles"
      arb_case
      (fun generated (db, phi) ->
        let st = Store.create b db in
        let free = F.free_vars phi in
        let saved = (Product.enabled (), Store.enabled ()) in
        Fun.protect
          ~finally:(fun () ->
            let fuse, index = saved in
            Product.set_enabled fuse;
            Store.set_enabled index)
          (fun () ->
            List.iter
              (fun (fuse, index) ->
                Product.set_enabled fuse;
                Store.set_enabled index;
                (* a fusable pair is built on its second request *)
                if fuse then ignore (Eval.prepare ~store:st b db ~free phi);
                match Eval.prepare ~store:st b db ~free phi with
                | Error e -> QCheck.Test.fail_reportf "prepare failed: %s" e
                | Ok p -> check_plan generated p)
              configs;
            true));
  ]

let suites = [ ("qcheck.table", invariant_props) ]
