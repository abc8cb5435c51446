open Jsvalue

type charge = Jsinterp.charge = Nodes of int | Cycles of int

let cycles = function Nodes n -> n * Jsinterp.cost_per_node | Cycles c -> c

type t = { interp : Jsinterp.interp; console : Buffer.t }

let define t name v = Jsinterp.define t.interp name v

(* Calibrated so the baseline in Figure 14 lands near the paper's 419 us
   total: ~150 us alloc, ~12 us bindings, ~137 us parse+exec of the
   base64 workload, ~100 us teardown (cycles at 2.69 GHz). *)
let context_alloc_cycles = 400_000
let binding_cycles = 32_000
let teardown_cycles = 270_000
let parse_cycles_per_token = 45

let num_method name f = Native (name, fun args ->
    match args with
    | v :: _ -> Num (f (to_number v))
    | [] -> Num Float.nan)

let install_builtins t =
  let math = Hashtbl.create 8 in
  Hashtbl.replace math "floor" (num_method "floor" Float.floor);
  Hashtbl.replace math "ceil" (num_method "ceil" Float.ceil);
  Hashtbl.replace math "abs" (num_method "abs" Float.abs);
  Hashtbl.replace math "sqrt" (num_method "sqrt" Float.sqrt);
  Hashtbl.replace math "min"
    (Native ("min", fun args -> Num (List.fold_left (fun acc v -> min acc (to_number v)) Float.infinity args)));
  Hashtbl.replace math "max"
    (Native ("max", fun args -> Num (List.fold_left (fun acc v -> max acc (to_number v)) Float.neg_infinity args)));
  Hashtbl.replace math "pow"
    (Native ("pow", fun args ->
         match args with
         | a :: b :: _ -> Num (Float.pow (to_number a) (to_number b))
         | _ -> Num Float.nan));
  Hashtbl.replace math "PI" (Num Float.pi);
  define t "Math" (Obj math);
  let string_obj = Hashtbl.create 4 in
  Hashtbl.replace string_obj "fromCharCode"
    (Native ("fromCharCode", fun args ->
         Str (String.concat ""
                (List.map (fun v -> String.make 1 (Char.chr (int_of_float (to_number v) land 0xFF))) args))));
  define t "String" (Obj string_obj);
  define t "parseInt"
    (Native ("parseInt", fun args ->
         match args with
         | v :: _ -> (
             let s = String.trim (to_string v) in
             (* parse the longest valid integer prefix *)
             let n = String.length s in
             let stop = ref 0 in
             let start = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
             stop := start;
             while !stop < n && s.[!stop] >= '0' && s.[!stop] <= '9' do
               incr stop
             done;
             if !stop = start then Num Float.nan
             else
               match int_of_string_opt (String.sub s 0 !stop) with
               | Some i -> Num (float_of_int i)
               | None -> Num Float.nan)
         | [] -> Num Float.nan));
    let json = Hashtbl.create 2 in
  Hashtbl.replace json "stringify"
    (Native ("stringify", fun args ->
         match args with v :: _ -> Str (Json.stringify v) | [] -> Str "null"));
  Hashtbl.replace json "parse"
    (Native ("parse", fun args ->
         match args with
         | v :: _ -> Json.parse (to_string v)
         | [] -> raise (Js_error "JSON.parse: missing argument")));
  define t "JSON" (Obj json);
  let print_fn =
    Native ("print", fun args ->
        Buffer.add_string t.console (String.concat " " (List.map to_string args));
        Buffer.add_char t.console '\n';
        Undefined)
  in
  define t "print" print_fn;
  define t "console_log" print_fn

let create ?charge ?(max_steps = 5_000_000) () =
  let t = { interp = Jsinterp.create ?charge ~max_steps (); console = Buffer.create 64 } in
  Jsinterp.charge t.interp context_alloc_cycles;
  install_builtins t;
  Jsinterp.charge t.interp binding_cycles;
  t

let register t name f = define t name (Native (name, f))

(* A script tokenised, parsed and compiled; a syntax error is kept, to
   surface (and, after lexing, charge) when the program runs. *)
type program =
  | Unlexable of string
  | Parsed of { tokens : int; code : (Jsinterp.program, string) result }

let syntax_error line msg = Printf.sprintf "SyntaxError (line %d): %s" line msg

let compile src =
  match Jslex.tokenize src with
  | exception Jslex.Error { line; msg } -> Unlexable (syntax_error line msg)
  | toks ->
      let code =
        match Jsparse.parse toks with
        | exception Jsparse.Error { line; msg } -> Error (syntax_error line msg)
        | prog -> Ok (Jsinterp.compile prog)
      in
      Parsed { tokens = List.length toks; code }

(* An entry's guest code, its result or error, and its nodes delivered
   to the hook however it ends. *)
let settle t f =
  let result =
    match f () with
    | v -> Ok v
    | exception Js_error msg -> Error msg
    | exception Jsinterp.Throw_exc v -> Error ("uncaught: " ^ to_string v)
    | exception Jsinterp.Return_exc _ -> Error "return outside function"
    | exception e ->
        Jsinterp.flush t.interp;
        raise e
  in
  Jsinterp.flush t.interp;
  result

let run t program =
  Jsinterp.reset_steps t.interp;
  match program with
  | Unlexable msg -> Error msg
  | Parsed { tokens; code } -> (
      Jsinterp.charge t.interp (tokens * parse_cycles_per_token);
      match code with
      | Error msg -> Error msg
      | Ok code -> settle t (fun () -> Jsinterp.run t.interp code))

let eval t src = run t (compile src)

let call t name args =
  Jsinterp.reset_steps t.interp;
  match Jsinterp.lookup t.interp name with
  | None -> Error (Printf.sprintf "ReferenceError: %s is not defined" name)
  | Some fv -> settle t (fun () -> Jsinterp.call t.interp fv args)

let destroy t = Jsinterp.charge t.interp teardown_cycles

let console_output t = Buffer.contents t.console

let set_charge t charge = Jsinterp.set_charge t.interp charge

let steps t = Jsinterp.steps t.interp
