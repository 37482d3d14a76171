let read name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with "" -> None | v -> Some v)

let is_off = function "0" | "false" | "off" | "no" -> true | _ -> false

let flag name ~default =
  match read name with None -> default | Some v -> not (is_off v)

let int name ~default ~off =
  match read name with
  | Some v when is_off v -> off
  | Some v -> (
      match int_of_string_opt v with Some n when n >= off -> n | _ -> default)
  | None -> default
