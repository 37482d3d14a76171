module S = Strdb_calculus.Sformula
module W = Strdb_calculus.Window
module F = Strdb_calculus.Formula

type cnf = Strdb_baselines.Dpll.cnf

let sigma = Strdb_util.Alphabet.of_string "1pn;TF"

let encode ~nvars cnf =
  if nvars < 1 then invalid_arg "Qbf.encode: need at least one variable";
  let literal l =
    let v = abs l in
    if v < 1 || v > nvars then invalid_arg "Qbf.encode: variable out of range";
    (if l > 0 then "p" else "n") ^ String.make v '1'
  in
  let clause c =
    if c = [] then invalid_arg "Qbf.encode: empty clause";
    String.concat "" (List.map literal c)
  in
  String.make nvars '1' ^ ";" ^ String.concat ";" (List.map clause cnf)

let assignment_string assignment =
  String.concat ""
    (List.map (fun (_, b) -> if b then "T" else "F") assignment)

let tf v = W.(Is_char (v, 'T') || Is_char (v, 'F'))

let header ~x ~y =
  S.seq
    [
      S.star (S.left [ x; y ] W.(Is_char (x, '1') && tf y));
      S.left [ x; y ] W.(Is_char (x, ';') && Is_empty y);
    ]

let rewind v =
  S.seq [ S.star (S.right [ v ] (W.is_not_empty v)); S.right [ v ] (W.Is_empty v) ]

let length_qualifier ~x ~y = header ~x ~y

let skip_literal ~x =
  S.seq
    [
      S.left [ x ] W.(Is_char (x, 'p') || Is_char (x, 'n'));
      S.star (S.left [ x ] (W.Is_char (x, '1')));
    ]

(* Pick a literal, walk its unary index along the assignment string, check
   the bit, rewind the assignment.  The surrounding clause anchors the
   stars: a prematurely stopped '1'-run leaves a '1' where the next atomic
   expects p/n/;/end. *)
let chosen ~x ~y sign value =
  S.seq
    [
      S.left [ x ] (W.Is_char (x, sign));
      S.plus (S.left [ x; y ] (W.Is_char (x, '1')));
      S.test (W.Is_char (y, value));
      rewind y;
    ]

let clause_check ~x ~y =
  S.seq
    [
      S.star (skip_literal ~x);
      S.alt [ chosen ~x ~y 'p' 'T'; chosen ~x ~y 'n' 'F' ];
      S.star (skip_literal ~x);
    ]

let check_formula ~x ~y =
  let clause = clause_check ~x ~y in
  S.seq
    [
      header ~x ~y;
      rewind y;
      clause;
      S.star (S.seq [ S.left [ x ] (W.Is_char (x, ';')); clause ]);
      S.left [ x ] (W.Is_empty x);
    ]

let sat_formula ~x ~y =
  F.Exists (y, F.And (F.Str (length_qualifier ~x ~y), F.Str (check_formula ~x ~y)))

let sat_via_strings ~nvars cnf =
  if cnf = [] then true
  else begin
    let enc = encode ~nvars cnf in
    let phi = check_formula ~x:"x" ~y:"y" in
    let fsa = Strdb_calculus.Compile.compile sigma ~vars:[ "x"; "y" ] phi in
    not (Strdb_fsa.Generate.is_empty_upto fsa ~inputs:[ enc ] ~max_len:nvars)
  end

let taut_via_strings ~nvars dnf =
  (* A DNF (terms read from the clause list) is valid iff the literal-wise
     negated CNF is unsatisfiable. *)
  not (sat_via_strings ~nvars (List.map (List.map (fun l -> -l)) dnf))

(* --- the Σᵖ₂ level -------------------------------------------------------- *)

(* Three-tape variant: assignments for the ∃ block live on tape y (variables
   1..ny), for the ∀ block on tape z (variables ny+1..ny+nz). *)
let chosen_z ~x ~y ~z sign value =
  S.seq
    [
      S.left [ x ] (W.Is_char (x, sign));
      S.star (S.left [ x; y ] W.(Is_char (x, '1') && is_not_empty y));
      S.left [ x; y; z ] W.(Is_char (x, '1') && Is_empty y);
      S.star (S.left [ x; z ] (W.Is_char (x, '1')));
      S.test (W.Is_char (z, value));
      rewind y;
      rewind z;
    ]

let clause_check3 ~x ~y ~z =
  S.seq
    [
      S.star (skip_literal ~x);
      S.alt
        [
          chosen ~x ~y 'p' 'T';
          chosen ~x ~y 'n' 'F';
          chosen_z ~x ~y ~z 'p' 'T';
          chosen_z ~x ~y ~z 'n' 'F';
        ];
      S.star (skip_literal ~x);
    ]

let encode2 ~ny ~nz cnf =
  if ny < 1 || nz < 1 then invalid_arg "Qbf.encode2: empty quantifier block";
  let nvars = ny + nz in
  let literal l =
    let v = abs l in
    if v < 1 || v > nvars then invalid_arg "Qbf.encode2: variable out of range";
    (if l > 0 then "p" else "n") ^ String.make v '1'
  in
  let clause c =
    if c = [] then invalid_arg "Qbf.encode2: empty clause";
    String.concat "" (List.map literal c)
  in
  String.make ny '1' ^ ";" ^ String.make nz '1' ^ ";"
  ^ String.concat ";" (List.map clause cnf)

let check_formula3 ~x ~y ~z =
  let clause = clause_check3 ~x ~y ~z in
  S.seq
    [
      header ~x ~y;
      header ~x:x ~y:z;
      rewind y;
      rewind z;
      clause;
      S.star (S.seq [ S.left [ x ] (W.Is_char (x, ';')); clause ]);
      S.left [ x ] (W.Is_empty x);
    ]

(* --- arbitrary alternation depth ------------------------------------------ *)

let encode_blocks ~blocks cnf =
  if blocks = [] || List.exists (fun n -> n < 1) blocks then
    invalid_arg "Qbf.encode_blocks: empty quantifier block";
  let nvars = List.fold_left ( + ) 0 blocks in
  let literal l =
    let v = abs l in
    if v < 1 || v > nvars then invalid_arg "Qbf.encode_blocks: variable out of range";
    (if l > 0 then "p" else "n") ^ String.make v '1'
  in
  let clause c =
    if c = [] then invalid_arg "Qbf.encode_blocks: empty clause";
    String.concat "" (List.map literal c)
  in
  String.concat "" (List.map (fun n -> String.make n '1' ^ ";") blocks)
  ^ String.concat ";" (List.map clause cnf)

(* Pick a literal whose variable lives in block [j] (1-based): consume the
   earlier blocks' unary ranges against their assignment tapes (each
   closing step hands the count over to the next tape), finish the count on
   tape j, check the bit, rewind everything. *)
let chosen_block ~x ~ys j sign value =
  let k = List.length ys in
  if j < 1 || j > k then invalid_arg "Qbf.chosen_block: block out of range";
  let y i = List.nth ys (i - 1) in
  let consume_earlier =
    List.concat_map
      (fun i ->
        [
          S.star (S.left [ x; y i ] W.(Is_char (x, '1') && is_not_empty (y i)));
          S.left [ x; y i; y (i + 1) ] W.(Is_char (x, '1') && Is_empty (y i));
        ])
      (List.init (j - 1) (fun i -> i + 1))
  in
  let finish =
    if j = 1 then [ S.plus (S.left [ x; y 1 ] (W.Is_char (x, '1'))) ]
    else [ S.star (S.left [ x; y j ] (W.Is_char (x, '1'))) ]
  in
  S.seq
    ([ S.left [ x ] (W.Is_char (x, sign)) ]
    @ consume_earlier @ finish
    @ [ S.test (W.Is_char (y j, value)) ]
    @ List.map (fun i -> rewind (y i)) (List.init j (fun i -> i + 1)))

let clause_check_k ~x ~ys =
  let k = List.length ys in
  S.seq
    [
      S.star (skip_literal ~x);
      S.alt
        (List.concat_map
           (fun j -> [ chosen_block ~x ~ys j 'p' 'T'; chosen_block ~x ~ys j 'n' 'F' ])
           (List.init k (fun i -> i + 1)));
      S.star (skip_literal ~x);
    ]

let check_formula_k ~x ~ys =
  let clause = clause_check_k ~x ~ys in
  S.seq
    (List.map (fun yv -> header ~x ~y:yv) ys
    @ List.map rewind ys
    @ [
        clause;
        S.star (S.seq [ S.left [ x ] (W.Is_char (x, ';')); clause ]);
        S.left [ x ] (W.Is_empty x);
      ])

let rec tf_strings_of n = if n = 0 then [ "" ] else
  List.concat_map (fun s -> [ "T" ^ s; "F" ^ s ]) (tf_strings_of (n - 1))

let ph_valid ~blocks cnf =
  if cnf = [] then true
  else begin
    let enc = encode_blocks ~blocks cnf in
    let k = List.length blocks in
    let ys = List.init k (fun i -> Printf.sprintf "y%d" (i + 1)) in
    let phi = check_formula_k ~x:"x" ~ys in
    let fsa = Strdb_calculus.Compile.compile sigma ~vars:("x" :: ys) phi in
    (* Alternate ∃/∀ over the qualifier-bounded assignment strings. *)
    let rec quantify existential blocks chosen =
      match blocks with
      | [] -> Strdb_fsa.Run.accepts fsa (enc :: List.rev chosen)
      | n :: rest ->
          let pick = if existential then List.exists else List.for_all in
          pick (fun s -> quantify (not existential) rest (s :: chosen)) (tf_strings_of n)
    in
    quantify true blocks []
  end

let brute_force_ph ~blocks cnf =
  let module D = Strdb_baselines.Dpll in
  let rec quantify existential blocks offset assignment =
    match blocks with
    | [] -> D.eval cnf assignment
    | n :: rest ->
        let pick = if existential then List.exists else List.for_all in
        pick
          (fun s ->
            quantify (not existential) rest (offset + n)
              (assignment
              @ List.mapi (fun i c -> (offset + i + 1, c = 'T')) (Strdb_util.Strutil.explode s)))
          (tf_strings_of n)
  in
  quantify true blocks 0 []

let tf_strings n =
  let rec go n = if n = 0 then [ "" ] else List.concat_map (fun s -> [ "T" ^ s; "F" ^ s ]) (go (n - 1)) in
  go n

let sigma2_valid ~ny ~nz cnf =
  if cnf = [] then true
  else begin
    let enc = encode2 ~ny ~nz cnf in
    let phi = check_formula3 ~x:"x" ~y:"y" ~z:"z" in
    let fsa = Strdb_calculus.Compile.compile sigma ~vars:[ "x"; "y"; "z" ] phi in
    (* The length qualifiers limit both quantifiers to {T,F}-strings of the
       declared lengths, so enumerating exactly those is the quantifier-
       limited semantics of Theorem 6.5. *)
    List.exists
      (fun sy ->
        List.for_all
          (fun sz -> Strdb_fsa.Run.accepts fsa [ enc; sy; sz ])
          (tf_strings nz))
      (tf_strings ny)
  end

let brute_force_sigma2 ~ny ~nz cnf =
  let module D = Strdb_baselines.Dpll in
  let assignments n offset =
    List.map
      (fun s ->
        List.mapi (fun i c -> (offset + i + 1, c = 'T')) (Strdb_util.Strutil.explode s))
      (tf_strings n)
  in
  List.exists
    (fun ay ->
      List.for_all (fun az -> D.eval cnf (ay @ az)) (assignments nz ny))
    (assignments ny 0)
