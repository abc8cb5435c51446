type table = { title : string option; header : string list; rows : string list list }

let file fig = Printf.sprintf "BENCH_%s.json" fig

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let string_list l =
  "[" ^ String.concat "," (List.map (fun s -> "\"" ^ escape s ^ "\"") l) ^ "]"

let write ~dir ~fig tables =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\"fig\":\"%s\",\"tables\":[" (escape fig));
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '{';
      Option.iter
        (fun title -> Buffer.add_string buf (Printf.sprintf "\"title\":\"%s\"," (escape title)))
        t.title;
      Buffer.add_string buf ("\"header\":" ^ string_list t.header);
      Buffer.add_string buf
        (",\"rows\":[" ^ String.concat "," (List.map string_list t.rows) ^ "]}"))
    tables;
  Buffer.add_string buf "]}\n";
  let path = Filename.concat dir (file fig) in
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc;
  path

exception Malformed of string

let array = function
  | Vjs.Jsvalue.Arr v -> Vjs.Jsvalue.vec_to_list v
  | _ -> raise (Malformed "expected an array")

let strings v =
  List.map
    (function Vjs.Jsvalue.Str s -> s | _ -> raise (Malformed "expected a string cell"))
    (array v)

let field o key =
  match Hashtbl.find_opt o key with
  | Some v -> v
  | None -> raise (Malformed (Printf.sprintf "no %S field" key))

let table = function
  | Vjs.Jsvalue.Obj o ->
      let title =
        match Hashtbl.find_opt o "title" with
        | None -> None
        | Some (Vjs.Jsvalue.Str t) -> Some t
        | Some _ -> raise (Malformed "title is not a string")
      in
      let header = strings (field o "header") in
      let rows = List.map strings (array (field o "rows")) in
      if List.exists (fun r -> List.compare_lengths r header <> 0) rows then
        raise (Malformed "a row is not as wide as its header");
      { title; header; rows }
  | _ -> raise (Malformed "a table is not an object")

let read path =
  match
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Vjs.Json.parse text with
    | Vjs.Jsvalue.Obj top -> List.map table (array (field top "tables"))
    | _ -> raise (Malformed "top level is not an object")
  with
  | [] -> Error (path ^ ": no tables")
  | tables -> Ok tables
  | exception Sys_error msg -> Error msg
  | exception (Vjs.Jsvalue.Js_error msg | Malformed msg) -> Error (path ^ ": " ^ msg)
