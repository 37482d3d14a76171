(* Just enough JSON output for the result line and the run record. *)

type t =
  | Num of float
  | Int of int
  | Bool of bool
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Numbers keep all their digits; JSON has no NaN or infinity, so a
   value that is not finite is written as null. *)
let rec to_string = function
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
      ^ "}"
