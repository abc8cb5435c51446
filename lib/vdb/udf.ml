type registration =
  | Js_udf of { row : Vjs.Isolate.t; batch : Vjs.Isolate.t }
  | Native_udf of (Vjs.Jsvalue.t -> (Vjs.Jsvalue.t, string) result)
  | C_udf of { compiled : Vcc.Compile.compiled; fn : string }

type t = { wasp : Wasp.Runtime.t; udfs : (string, registration) Hashtbl.t }

exception Unknown_udf of string

let create wasp = { wasp; udfs = Hashtbl.create 8 }

let batch_driver ~entry =
  Printf.sprintf
    {|
function __vdb_batch(rows) {
  var out = [];
  for (var i = 0; i < rows.length; i++) {
    out.push(%s(rows[i]));
  }
  return out;
}
|}
    entry

let js_keys name = (Printf.sprintf "udf:%s:row" name, Printf.sprintf "udf:%s:batch" name)

(* A native payload's snapshot cannot tell one source from another, so a
   registration that replaces a JS UDF, of whatever kind, drops the old
   isolates' snapshots. *)
let replace t name registration =
  (match Hashtbl.find_opt t.udfs name with
  | Some (Js_udf _) ->
      let row_key, batch_key = js_keys name in
      Wasp.Runtime.drop_snapshot t.wasp ~key:row_key;
      Wasp.Runtime.drop_snapshot t.wasp ~key:batch_key
  | Some (Native_udf _ | C_udf _) | None -> ());
  Hashtbl.replace t.udfs name registration

let register_js t ~name ~source ~entry =
  let row_key, batch_key = js_keys name in
  let row = Vjs.Isolate.create t.wasp ~key:row_key ~source ~entry in
  let batch =
    Vjs.Isolate.create t.wasp ~key:batch_key
      ~source:(source ^ batch_driver ~entry)
      ~entry:"__vdb_batch"
  in
  replace t name (Js_udf { row; batch })

let register_native t ~name f = replace t name (Native_udf f)

let register_c t ~name ~source ~fn =
  let compiled = Vcc.Compile.compile ~name:("udf_" ^ name) source in
  (match Vcc.Compile.find_virtine compiled fn with
  | Some _ -> ()
  | None ->
      raise
        (Vcc.Compile.Compile_error (Printf.sprintf "UDF %s: %s is not virtine-annotated" name fn)));
  replace t name (C_udf { compiled; fn })

let lookup t name =
  match Hashtbl.find_opt t.udfs name with
  | Some r -> r
  | None -> raise (Unknown_udf name)

let apply_row t ~name row =
  match lookup t name with
  | Js_udf { row = isolate; _ } -> fst (Vjs.Isolate.call_json isolate [ row ])
  | Native_udf f -> f row
  | C_udf _ -> Error "C UDFs take integer arguments; use apply_c"

let apply_batch t ~name rows =
  match lookup t name with
  | Js_udf { batch; _ } -> (
      match fst (Vjs.Isolate.call_json batch [ Vjs.Jsvalue.Arr (Vjs.Jsvalue.vec_of_list rows) ]) with
      | Ok (Vjs.Jsvalue.Arr out) -> Ok (Vjs.Jsvalue.vec_to_list out)
      | Ok _ -> Error "batch driver returned a non-array"
      | Error e -> Error e)
  | Native_udf f ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest -> ( match f r with Ok v -> go (v :: acc) rest | Error e -> Error e)
      in
      go [] rows
  | C_udf _ -> Error "C UDFs take integer arguments; use apply_c"

let apply_c t ~name args =
  match lookup t name with
  | C_udf { compiled; fn } -> (
      let r = Vcc.Compile.invoke t.wasp compiled fn args () in
      match r.Wasp.Runtime.outcome with
      | Wasp.Runtime.Exited _ -> Ok r.Wasp.Runtime.return_value
      | Wasp.Runtime.Faulted _ -> Error "UDF faulted"
      | Wasp.Runtime.Fuel_exhausted -> Error "UDF ran out of fuel")
  | Js_udf _ | Native_udf _ -> Error (Printf.sprintf "%s is not a C UDF" name)
