type value = Int of int64 | Text of string

type column_type = Tint | Ttext

type schema = (string * column_type) list

exception Schema_error of string

type t = { tname : string; tschema : schema; mutable trows : value list list }

let fail fmt = Printf.ksprintf (fun s -> raise (Schema_error s)) fmt

let create ~name schema =
  if schema = [] then fail "table %s: empty schema" name;
  let names = List.map fst schema in
  List.iter (fun n -> if n = "" then fail "table %s: empty column name" name) names;
  if List.length (List.sort_uniq compare names) <> List.length names then
    fail "table %s: duplicate column" name;
  { tname = name; tschema = schema; trows = [] }

let name t = t.tname
let schema t = t.tschema

let type_matches ty v =
  match (ty, v) with Tint, Int _ -> true | Ttext, Text _ -> true | _ -> false

let insert t row =
  if List.length row <> List.length t.tschema then
    fail "table %s: expected %d values, got %d" t.tname (List.length t.tschema)
      (List.length row);
  List.iter2
    (fun (cname, ty) v ->
      if not (type_matches ty v) then fail "table %s: column %s type mismatch" t.tname cname)
    t.tschema row;
  t.trows <- row :: t.trows

let insert_all t rows = List.iter (insert t) rows

let rows t = List.rev t.trows

let length t = List.length t.trows

let pp_value ppf = function
  | Int v -> Format.fprintf ppf "%Ld" v
  | Text s -> Format.fprintf ppf "%S" s
