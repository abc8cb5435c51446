(* Compiler from the vjs AST to OCaml closures, with a pluggable
   cycle-charging hook.

   A program is compiled once. Identifiers resolve at compile time to
   frame slots, and operators, property names and method names to
   specialised closures; the compiled code holds no engine, so engines
   share it. The cost model is the one the tree-walking evaluator
   defined: one [cost_per_node] for every node it evaluated, in its
   order. A node only bumps [steps]; the hook receives the nodes not yet
   delivered at each host boundary, where host code could read the
   clock (see the interface).

   Scoping keeps that evaluator's rules exactly. Every block, [if]
   branch, loop iteration, [try], [catch] and [finally] body, the head
   of a [for], and each call is its own scope. A [var] or function
   declaration binds in the scope whose statement list holds it, at the
   moment it runs; before that, the name resolves outward. A scope that
   declares names gets a frame of slots, all "absent" until their
   declaration runs; a scope that declares none gets no frame. A name
   resolves to the innermost present slot among the scopes that declare
   it, and then to the engine's globals. Assigning to a name bound
   nowhere creates a global. *)

open Jsvalue

exception Return_exc of t
exception Throw_exc of t

(* [break] and [continue] unwind to their loop; the parser guarantees
   one exists in the same function *)
exception Break_exc
exception Continue_exc

type charge = Nodes of int | Cycles of int

(* Nodes are counted in [steps] and reach the hook in one [Nodes] at the
   next host boundary; [charged] is how many of [steps] it has had. *)
type interp = {
  mutable charge : charge -> unit;
  mutable steps : int;
  mutable charged : int;
  max_steps : int;
  globals : (string, t) Hashtbl.t;
}

let cost_per_node = 22

let create ?(charge = fun _ -> ()) ?(max_steps = 50_000_000) () =
  { charge; steps = 0; charged = 0; max_steps; globals = Hashtbl.create 32 }

(* a node past the budget raised before it was charged, so it never is *)
let flush it =
  let n = min it.steps it.max_steps - it.charged in
  if n > 0 then begin
    it.charged <- it.charged + n;
    it.charge (Nodes n)
  end

let charge it c =
  flush it;
  it.charge (Cycles c)

let set_charge it c = it.charge <- c

(* the budget bounds a single top-level entry, not the engine lifetime *)
let reset_steps it =
  it.steps <- 0;
  it.charged <- 0

let steps it = it.steps
let define it name v = Hashtbl.replace it.globals name v
let lookup it name = Hashtbl.find_opt it.globals name

let budget_exceeded () = raise (Js_error "script step budget exceeded")

let[@inline] tick it =
  let s = it.steps + 1 in
  it.steps <- s;
  if s > it.max_steps then budget_exceeded ()

let js_fail fmt = Printf.ksprintf (fun s -> raise (Js_error s)) fmt

(* Jsvalue's coercions, with their common case inlined *)
let[@inline] truthy = function Bool b -> b | v -> truthy v
let[@inline] to_number = function Num n -> n | v -> to_number v

(* ------------------------------------------------------------------ *)
(* Runtime frames                                                       *)
(* ------------------------------------------------------------------ *)

type frame = { vars : t array; up : frame }

(* the frame of the global scope, whose names live in [globals] *)
let rec root = { vars = [||]; up = root }

(* the content of a slot whose declaration has not run; compared
   physically, never seen by guest code *)
let absent = Obj (Hashtbl.create 1)

let new_frame n up = { vars = Array.make n absent; up }

let rec frame_at fr hops = if hops = 0 then fr else frame_at fr.up (hops - 1)

type expr_code = interp -> frame -> t
type stmt_code = interp -> frame -> unit

(* ------------------------------------------------------------------ *)
(* Calls and builtin methods                                            *)
(* ------------------------------------------------------------------ *)

(* Every call from guest code, and every native, goes through here: a
   native is host code, which may read the clock, so the nodes counted
   so far reach the hook first. *)
let call it fv argv =
  match fv with
  | Fun f -> f.call argv
  | Native (_, f) ->
      flush it;
      f argv
  | other -> js_fail "%s is not a function" (type_name other)

(* builtin methods, selected by name at compile time and dispatched on
   the receiver's kind at run time *)
let string_method name : string -> t list -> t =
  let arg args n = match List.nth_opt args n with Some v -> v | None -> Undefined in
  let num args n = int_of_float (to_number (arg args n)) in
  match name with
  | "charCodeAt" ->
      fun recv args ->
        let i = num args 0 in
        if i < 0 || i >= String.length recv then Num Float.nan
        else Num (float_of_int (Char.code recv.[i]))
  | "charAt" ->
      fun recv args ->
        let i = num args 0 in
        if i < 0 || i >= String.length recv then Str "" else Str (String.make 1 recv.[i])
  | "indexOf" ->
      fun recv args ->
        let needle = to_string (arg args 0) in
        let nh = String.length recv and nn = String.length needle in
        let rec go i =
          if i + nn > nh then -1 else if String.sub recv i nn = needle then i else go (i + 1)
        in
        Num (float_of_int (go 0))
  | "substring" ->
      fun recv args ->
        let a = max 0 (min (String.length recv) (num args 0)) in
        let b =
          match List.nth_opt args 1 with
          | Some v -> max 0 (min (String.length recv) (int_of_float (to_number v)))
          | None -> String.length recv
        in
        let lo = min a b and hi = max a b in
        Str (String.sub recv lo (hi - lo))
  | "slice" ->
      fun recv args ->
        let n = String.length recv in
        let norm i = if i < 0 then max 0 (n + i) else min n i in
        let a = norm (num args 0) in
        let b =
          match List.nth_opt args 1 with
          | Some v -> norm (int_of_float (to_number v))
          | None -> n
        in
        if a >= b then Str "" else Str (String.sub recv a (b - a))
  | "toUpperCase" -> fun recv _ -> Str (String.uppercase_ascii recv)
  | "toLowerCase" -> fun recv _ -> Str (String.lowercase_ascii recv)
  | "split" ->
      fun recv args ->
        let sep = to_string (arg args 0) in
        if sep = "" then
          Arr (vec_of_list (List.init (String.length recv) (fun i -> Str (String.make 1 recv.[i]))))
        else begin
          let parts = ref [] and start = ref 0 in
          let nh = String.length recv and nn = String.length sep in
          let i = ref 0 in
          while !i + nn <= nh do
            if String.sub recv !i nn = sep then begin
              parts := String.sub recv !start (!i - !start) :: !parts;
              i := !i + nn;
              start := !i
            end
            else incr i
          done;
          parts := String.sub recv !start (nh - !start) :: !parts;
          Arr (vec_of_list (List.rev_map (fun s -> Str s) !parts))
        end
  | _ -> fun _ _ -> js_fail "string has no method %s" name

let array_method name : interp -> vec -> t list -> t =
  match name with
  | "map" -> (
      fun it recv -> function
        | f :: _ -> Arr (vec_of_list (List.map (fun x -> call it f [ x ]) (vec_to_list recv)))
        | [] -> js_fail "map expects a function")
  | "filter" -> (
      fun it recv -> function
        | f :: _ ->
            Arr (vec_of_list (List.filter (fun x -> truthy (call it f [ x ])) (vec_to_list recv)))
        | [] -> js_fail "filter expects a function")
  | "forEach" -> (
      fun it recv -> function
        | f :: _ ->
            List.iter (fun x -> ignore (call it f [ x ])) (vec_to_list recv);
            Undefined
        | [] -> js_fail "forEach expects a function")
  | "reduce" -> (
      fun it recv -> function
        | f :: rest ->
            let items = vec_to_list recv in
            let init, items =
              match (rest, items) with
              | seed :: _, _ -> (seed, items)
              | [], x :: xs -> (x, xs)
              | [], [] -> js_fail "reduce of empty array with no initial value"
            in
            List.fold_left (fun acc x -> call it f [ acc; x ]) init items
        | [] -> js_fail "reduce expects a function")
  | "concat" -> (
      fun _ recv -> function
        | Arr other :: _ -> Arr (vec_of_list (vec_to_list recv @ vec_to_list other))
        | v :: _ -> Arr (vec_of_list (vec_to_list recv @ [ v ]))
        | [] -> Arr (vec_of_list (vec_to_list recv)))
  | "reverse" ->
      fun _ recv _ ->
        let items = List.rev (vec_to_list recv) in
        List.iteri (fun i x -> vec_set recv i x) items;
        Arr recv
  | "push" ->
      fun _ recv args ->
        List.iter (vec_push recv) args;
        Num (float_of_int recv.len)
  | "pop" -> fun _ recv _ -> vec_pop recv
  | "join" ->
      fun _ recv args ->
        let sep = match args with v :: _ -> to_string v | [] -> "," in
        Str (String.concat sep (List.map to_string (vec_to_list recv)))
  | "indexOf" ->
      fun _ recv args ->
        let target = match args with v :: _ -> v | [] -> Undefined in
        let rec go i =
          if i >= recv.len then -1
          else if strict_equal (vec_get recv i) target then i
          else go (i + 1)
        in
        Num (float_of_int (go 0))
  | "slice" ->
      fun _ recv args ->
        let n = recv.len in
        let norm v =
          let i = int_of_float (to_number v) in
          if i < 0 then max 0 (n + i) else min n i
        in
        let a = match args with v :: _ -> norm v | [] -> 0 in
        let b = match args with _ :: v :: _ -> norm v | _ -> n in
        Arr (vec_of_list (List.filteri (fun i _ -> i >= a && i < b) (vec_to_list recv)))
  | _ -> fun _ _ _ -> js_fail "array has no method %s" name

(* ------------------------------------------------------------------ *)
(* Operators                                                            *)
(* ------------------------------------------------------------------ *)

let int32_op f a b = Num (Int32.to_float (f (to_int32 a) (to_int32 b)))
let shift f a b = Num (Int32.to_float (f (to_int32 a) (Int32.to_int (to_int32 b) land 31)))

(* string [+]: a string grows no longer than {!Jsvalue.max_length} *)
let concat x y =
  if String.length x + String.length y > max_length then js_fail "RangeError: invalid string length";
  x ^ y

(* one shared block per boolean: a comparison allocates nothing *)
let[@inline] bool b = if b then Bool true else Bool false

let compare_op numcmp strcmp a b =
  match (a, b) with
  | Str x, Str y -> bool (strcmp x y)
  | _ -> bool (numcmp (to_number a) (to_number b))

(* a binary operator other than && and ||, applied to both operands *)
let binop = function
  | "+" -> (
      fun a b ->
        match (a, b) with
        | Num x, Num y -> Num (x +. y)
        | Str _, _ | _, Str _ -> Str (concat (to_string a) (to_string b))
        | _ -> Num (to_number a +. to_number b))
  | "-" -> fun a b -> Num (to_number a -. to_number b)
  | "*" -> fun a b -> Num (to_number a *. to_number b)
  | "/" -> fun a b -> Num (to_number a /. to_number b)
  | "%" -> fun a b -> Num (Float.rem (to_number a) (to_number b))
  | "<" -> compare_op (fun x y -> x < y) (fun x y -> String.compare x y < 0)
  | "<=" -> compare_op (fun x y -> x <= y) (fun x y -> String.compare x y <= 0)
  | ">" -> compare_op (fun x y -> x > y) (fun x y -> String.compare x y > 0)
  | ">=" -> compare_op (fun x y -> x >= y) (fun x y -> String.compare x y >= 0)
  | "==" -> fun a b -> bool (loose_equal a b)
  | "!=" -> fun a b -> bool (not (loose_equal a b))
  | "===" -> fun a b -> bool (strict_equal a b)
  | "!==" -> fun a b -> bool (not (strict_equal a b))
  | "&" -> int32_op Int32.logand
  | "|" -> int32_op Int32.logor
  | "^" -> int32_op Int32.logxor
  | "<<" -> shift Int32.shift_left
  | ">>" -> shift Int32.shift_right
  | op -> fun _ _ -> js_fail "unknown operator %s" op

let unop = function
  | "-" -> fun v -> Num (-.to_number v)
  | "+" -> fun v -> Num (to_number v)
  | "!" -> fun v -> bool (not (truthy v))
  | "~" -> fun v -> Num (Int32.to_float (Int32.lognot (to_int32 v)))
  | op -> fun _ -> js_fail "unknown unary %s" op

(* ------------------------------------------------------------------ *)
(* Compile-time scopes                                                  *)
(* ------------------------------------------------------------------ *)

(* [names] are the scope's slots; a scope with none has no frame *)
type scope = Global | Local of { names : string array; outer : scope }

(* the loop a [break] or [continue] unwinds to, noting which of the two
   its body uses so that it installs only the handlers it needs *)
type loop = { mutable breaks : bool; mutable continues : bool }

type ctx = { scope : scope; loop : loop option }

(* a compiled function: frame size, the slot of each parameter, body *)
type fcode = { nslots : int; params : int array; body : stmt_code }

let declared stmts =
  List.filter_map
    (function Jsast.Svar (n, _) | Jsast.Sfundecl (n, _, _) -> Some n | _ -> None)
    stmts

let local outer names =
  let names = List.fold_left (fun acc n -> if List.mem n acc then acc else n :: acc) [] names in
  Local { names = Array.of_list (List.rev names); outer }

let slot names name =
  let rec go k = if names.(k) = name then k else go (k + 1) in
  go 0

let names_of = function Local { names; _ } -> names | Global -> [||]
let frame_size scope = Array.length (names_of scope)

(* (frames up, slot) of each scope that declares [name], innermost first *)
let candidates scope name =
  let rec go scope hops =
    match scope with
    | Global -> []
    | Local { names; outer } ->
        let up = if Array.length names > 0 then hops + 1 else hops in
        if Array.mem name names then (hops, slot names name) :: go outer up else go outer up
  in
  go scope 0

(* the innermost present binding among [cands], or [absent] *)
let rec read cands fr =
  match cands with
  | [] -> absent
  | (h, k) :: rest ->
      let v = Array.unsafe_get (frame_at fr h).vars k in
      if v == absent then read rest fr else v

(* store into the innermost present binding among [cands]; false when
   there is none *)
let rec write cands fr v =
  match cands with
  | [] -> false
  | (h, k) :: rest ->
      let vars = (frame_at fr h).vars in
      if Array.unsafe_get vars k == absent then write rest fr v
      else begin
        Array.unsafe_set vars k v;
        true
      end

(* store into [name]'s binding in the current scope *)
let binder scope name : interp -> frame -> t -> unit =
  match scope with
  | Global -> fun it _ v -> Hashtbl.replace it.globals name v
  | Local { names; _ } ->
      let k = slot names name in
      fun _ fr v -> Array.unsafe_set fr.vars k v

let global_get it name =
  match Hashtbl.find it.globals name with
  | v -> v
  | exception Not_found -> js_fail "ReferenceError: %s is not defined" name

(* ------------------------------------------------------------------ *)
(* Functions                                                            *)
(* ------------------------------------------------------------------ *)

let invoke it fr fc args =
  let fr =
    if fc.nslots = 0 then fr
    else begin
      let vars = Array.make fc.nslots absent in
      let rec bind i args =
        if i < Array.length fc.params then
          match args with
          | [] ->
              vars.(fc.params.(i)) <- Undefined;
              bind (i + 1) []
          | a :: rest ->
              vars.(fc.params.(i)) <- a;
              bind (i + 1) rest
      in
      bind 0 args;
      { vars; up = fr }
    end
  in
  match fc.body it fr with () -> Undefined | exception Return_exc v -> v

let make_fun it fr fname fc = Fun { fname; call = (fun args -> invoke it fr fc args) }

(* ------------------------------------------------------------------ *)
(* The compiler                                                         *)
(* ------------------------------------------------------------------ *)

let nop : stmt_code = fun _ _ -> ()

let seq = function
  | [] -> nop
  | [ a ] -> a
  | [ a; b ] ->
      fun it fr ->
        a it fr;
        b it fr
  | codes ->
      let codes = Array.of_list codes in
      fun it fr ->
        for i = 0 to Array.length codes - 1 do
          (Array.unsafe_get codes i) it fr
        done

(* arguments, evaluated left to right *)
let args_code = function
  | [] -> fun _ _ -> []
  | [ a ] -> fun it fr -> [ a it fr ]
  | [ a; b ] ->
      fun it fr ->
        let x = a it fr in
        let y = b it fr in
        [ x; y ]
  | codes ->
      let rec eval it fr = function
        | [] -> []
        | e :: rest ->
            let v = e it fr in
            v :: eval it fr rest
      in
      fun it fr -> eval it fr codes

let rec compile_expr c (e : Jsast.expr) : expr_code =
  match e with
  | Jsast.Enum n -> constant (Num n)
  | Jsast.Estr s -> constant (Str s)
  | Jsast.Ebool b -> constant (Bool b)
  | Jsast.Enull -> constant Null
  | Jsast.Eundefined -> constant Undefined
  | Jsast.Eident name -> (
      match candidates c.scope name with
      | [] ->
          fun it _ ->
            tick it;
            global_get it name
      | [ (0, k) ] ->
          fun it fr ->
            tick it;
            let v = Array.unsafe_get fr.vars k in
            if v != absent then v else global_get it name
      | [ (1, k) ] ->
          fun it fr ->
            tick it;
            let v = Array.unsafe_get fr.up.vars k in
            if v != absent then v else global_get it name
      | cands ->
          fun it fr ->
            tick it;
            let v = read cands fr in
            if v != absent then v else global_get it name)
  | Jsast.Earray items ->
      let items = Array.of_list (List.map (compile_expr c) items) in
      fun it fr ->
        tick it;
        let n = Array.length items in
        if n = 0 then Arr (vec_create ())
        else begin
          let vals = Array.make n Undefined in
          for i = 0 to n - 1 do
            vals.(i) <- items.(i) it fr
          done;
          Arr { items = vals; len = n }
        end
  | Jsast.Eobject fields ->
      let fields = List.map (fun (k, v) -> (k, compile_expr c v)) fields in
      fun it fr ->
        tick it;
        let tbl = Hashtbl.create 8 in
        List.iter (fun (k, v) -> Hashtbl.replace tbl k (v it fr)) fields;
        Obj tbl
  | Jsast.Efun (params, body) ->
      let fc = compile_function c params body in
      fun it fr ->
        tick it;
        make_fun it fr "anonymous" fc
  | Jsast.Ecall (f, args) ->
      let f = compile_expr c f and args = args_code (List.map (compile_expr c) args) in
      fun it fr ->
        tick it;
        let fv = f it fr in
        let argv = args it fr in
        call it fv argv
  | Jsast.Emethod (recv, name, args) ->
      let recv = compile_expr c recv and args = args_code (List.map (compile_expr c) args) in
      let on_string = string_method name and on_array = array_method name in
      fun it fr ->
        tick it;
        let rv = recv it fr in
        let argv = args it fr in
        (match rv with
        | Str s -> on_string s argv
        | Arr v -> on_array it v argv
        | Obj tbl -> (
            match Hashtbl.find_opt tbl name with
            | Some fv -> call it fv argv
            | None -> js_fail "object has no method %s" name)
        | other -> js_fail "%s has no method %s" (type_name other) name)
  | Jsast.Eprop (recv, name) -> (
      let recv = compile_expr c recv and length = name = "length" in
      fun it fr ->
        tick it;
        match recv it fr with
        | Str s when length -> Num (float_of_int (String.length s))
        | Arr v when length -> Num (float_of_int v.len)
        | Obj tbl -> ( match Hashtbl.find_opt tbl name with Some v -> v | None -> Undefined)
        | rv -> js_fail "cannot read property %s of %s" name (type_name rv))
  | Jsast.Eindex (recv, idx) ->
      let recv = compile_expr c recv and idx = compile_expr c idx in
      fun it fr ->
        tick it;
        let rv = recv it fr in
        let iv = idx it fr in
        (match rv with
        | Arr v -> vec_get v (int_of_float (to_number iv))
        | Str s ->
            let i = int_of_float (to_number iv) in
            if i < 0 || i >= String.length s then Undefined else Str (String.make 1 s.[i])
        | Obj tbl -> (
            match Hashtbl.find_opt tbl (to_string iv) with Some v -> v | None -> Undefined)
        | _ -> js_fail "cannot index %s" (type_name rv))
  | Jsast.Eunop (op, a) ->
      let a = compile_expr c a and f = unop op in
      fun it fr ->
        tick it;
        f (a it fr)
  | Jsast.Ebinop ("&&", a, b) ->
      let a = compile_expr c a and b = compile_expr c b in
      fun it fr ->
        tick it;
        let va = a it fr in
        if truthy va then b it fr else va
  | Jsast.Ebinop ("||", a, b) ->
      let a = compile_expr c a and b = compile_expr c b in
      fun it fr ->
        tick it;
        let va = a it fr in
        if truthy va then va else b it fr
  | Jsast.Ebinop (op, a, b) ->
      let a = compile_expr c a and b = compile_expr c b and f = binop op in
      fun it fr ->
        tick it;
        let va = a it fr in
        let vb = b it fr in
        f va vb
  | Jsast.Eassign (target, value) -> compile_assign c target (compile_expr c value)
  | Jsast.Econd (cond, a, b) ->
      let cond = compile_expr c cond and a = compile_expr c a and b = compile_expr c b in
      fun it fr ->
        tick it;
        if truthy (cond it fr) then a it fr else b it fr
  | Jsast.Etypeof (Jsast.Eident name) -> (
      let cands = candidates c.scope name in
      fun it fr ->
        tick it;
        let v = read cands fr in
        if v != absent then Str (type_name v)
        else
          match Hashtbl.find it.globals name with
          | v -> Str (type_name v)
          | exception Not_found -> Str "undefined")
  | Jsast.Etypeof e ->
      let e = compile_expr c e in
      fun it fr ->
        tick it;
        Str (type_name (e it fr))

and constant v : expr_code =
 fun it _ ->
  tick it;
  v

(* The value is evaluated first, then the target's receiver and index;
   the target node itself is not charged. *)
and compile_assign c target value : expr_code =
  match target with
  | Jsast.Eident name -> (
      match candidates c.scope name with
      | [ (0, k) ] ->
          fun it fr ->
            tick it;
            let v = value it fr in
            if Array.unsafe_get fr.vars k != absent then Array.unsafe_set fr.vars k v
            else Hashtbl.replace it.globals name v;
            v
      | cands ->
          fun it fr ->
            tick it;
            let v = value it fr in
            if not (write cands fr v) then Hashtbl.replace it.globals name v;
            v)
  | Jsast.Eindex (recv, idx) ->
      let recv = compile_expr c recv and idx = compile_expr c idx in
      fun it fr ->
        tick it;
        let v = value it fr in
        let rv = recv it fr in
        let iv = idx it fr in
        (match rv with
        | Arr vec -> vec_set vec (int_of_float (to_number iv)) v
        | Obj tbl -> Hashtbl.replace tbl (to_string iv) v
        | _ -> js_fail "cannot index-assign %s" (type_name rv));
        v
  | Jsast.Eprop (recv, name) ->
      let recv = compile_expr c recv in
      fun it fr ->
        tick it;
        let v = value it fr in
        (match recv it fr with
        | Obj tbl -> Hashtbl.replace tbl name v
        | rv -> js_fail "cannot set property %s of %s" name (type_name rv));
        v
  | _ ->
      fun it fr ->
        tick it;
        ignore (value it fr);
        js_fail "invalid assignment target"

and compile_function c params body =
  let scope = local c.scope (params @ declared body) in
  let names = names_of scope in
  {
    nslots = Array.length names;
    params = Array.of_list (List.map (slot names) params);
    body = compile_stmts { scope; loop = None } body;
  }

and compile_stmts c stmts = seq (List.map (compile_stmt c) stmts)

(* [stmts] in a scope of their own *)
and compile_block c stmts : stmt_code =
  let scope = local c.scope (declared stmts) in
  let body = compile_stmts { c with scope } stmts in
  match frame_size scope with 0 -> body | n -> fun it fr -> body it (new_frame n fr)

and compile_loop_body c body =
  let loop = { breaks = false; continues = false } in
  let body = compile_block { c with loop = Some loop } body in
  let body =
    if loop.continues then fun it fr -> try body it fr with Continue_exc -> () else body
  in
  (loop, body)

and compile_stmt c (s : Jsast.stmt) : stmt_code =
  match s with
  | Jsast.Sexpr e ->
      let e = compile_expr c e in
      fun it fr ->
        tick it;
        ignore (e it fr)
  | Jsast.Svar (name, init) ->
      let init = match init with Some e -> compile_expr c e | None -> fun _ _ -> Undefined in
      let set = binder c.scope name in
      fun it fr ->
        tick it;
        set it fr (init it fr)
  | Jsast.Sif (cond, t, f) ->
      let cond = compile_expr c cond and t = compile_block c t and f = compile_block c f in
      fun it fr ->
        tick it;
        if truthy (cond it fr) then t it fr else f it fr
  | Jsast.Swhile (cond, body) ->
      let cond = compile_expr c cond in
      let loop, body = compile_loop_body c body in
      let run it fr =
        while truthy (cond it fr) do
          body it fr
        done
      in
      if loop.breaks then fun it fr ->
        tick it;
        try run it fr with Break_exc -> ()
      else fun it fr ->
        tick it;
        run it fr
  | Jsast.Sfor (init, cond, step, body) ->
      let scope = local c.scope (match init with Some s -> declared [ s ] | None -> []) in
      let c = { c with scope } in
      let init = match init with Some s -> compile_stmt c s | None -> nop in
      let cond =
        match cond with
        | Some e ->
            let e = compile_expr c e in
            fun it fr -> truthy (e it fr)
        | None -> fun _ _ -> true
      in
      let step =
        match step with
        | Some e ->
            let e = compile_expr c e in
            fun it fr -> ignore (e it fr)
        | None -> nop
      in
      let loop, body = compile_loop_body c body in
      let run it fr =
        init it fr;
        while cond it fr do
          body it fr;
          step it fr
        done
      in
      let run = if loop.breaks then fun it fr -> try run it fr with Break_exc -> () else run in
      let n = frame_size scope in
      fun it fr ->
        tick it;
        run it (if n = 0 then fr else new_frame n fr)
  | Jsast.Sreturn e ->
      let e = match e with Some e -> compile_expr c e | None -> fun _ _ -> Undefined in
      fun it fr ->
        tick it;
        raise_notrace (Return_exc (e it fr))
  | Jsast.Sbreak -> (
      match c.loop with
      | Some loop ->
          loop.breaks <- true;
          fun it _ ->
            tick it;
            raise_notrace Break_exc
      | None -> invalid_arg "Jsinterp.compile: break outside a loop")
  | Jsast.Scontinue -> (
      match c.loop with
      | Some loop ->
          loop.continues <- true;
          fun it _ ->
            tick it;
            raise_notrace Continue_exc
      | None -> invalid_arg "Jsinterp.compile: continue outside a loop")
  | Jsast.Sfundecl (name, params, body) ->
      let fc = compile_function c params body and set = binder c.scope name in
      fun it fr ->
        tick it;
        set it fr (make_fun it fr name fc)
  | Jsast.Sblock body ->
      let body = compile_block c body in
      fun it fr ->
        tick it;
        body it fr
  | Jsast.Sthrow e ->
      let e = compile_expr c e in
      fun it fr ->
        tick it;
        raise (Throw_exc (e it fr))
  | Jsast.Stry (body, catch, fin) ->
      let body = compile_block c body in
      (* a guest [throw] or a runtime error (surfaced as its message)
         enters the catch body, with the binding in the body's scope *)
      let body =
        match catch with
        | None -> body
        | Some (binding, cbody) ->
            let scope = local c.scope (binding :: declared cbody) in
            let k = slot (names_of scope) binding and n = frame_size scope in
            let cbody = compile_stmts { c with scope } cbody in
            let caught it fr v =
              let fr = new_frame n fr in
              fr.vars.(k) <- v;
              cbody it fr
            in
            fun it fr ->
              try body it fr with
              | Throw_exc v -> caught it fr v
              | Js_error msg -> caught it fr (Str msg)
      in
      (* the finally body runs however the rest ends, then the rest's
         outcome stands unless the finally body raised its own *)
      let run =
        match fin with
        | [] -> body
        | fin ->
            let fin = compile_block c fin in
            fun it fr ->
              (try body it fr
               with e ->
                 fin it fr;
                 raise e);
              fin it fr
      in
      fun it fr ->
        tick it;
        run it fr

(* ------------------------------------------------------------------ *)
(* Programs                                                             *)
(* ------------------------------------------------------------------ *)

type top = Expr of expr_code | Stmt of stmt_code

type program = { hoisted : (string * fcode) list; top : top list }

let compile (prog : Jsast.program) =
  let c = { scope = Global; loop = None } in
  {
    hoisted =
      List.filter_map
        (function
          | Jsast.Sfundecl (name, params, body) -> Some (name, compile_function c params body)
          | _ -> None)
        prog;
    top =
      List.filter_map
        (function
          | Jsast.Sfundecl _ -> None
          | Jsast.Sexpr e -> Some (Expr (compile_expr c e))
          | s -> Some (Stmt (compile_stmt c s)))
        prog;
  }

(* Function declarations are hoisted first, as JS does; a top-level
   expression statement is evaluated as a bare expression (no statement
   charge), and the last one's value is the result. *)
let run it prog =
  List.iter
    (fun (name, fc) -> Hashtbl.replace it.globals name (make_fun it root name fc))
    prog.hoisted;
  List.fold_left
    (fun result -> function Expr e -> e it root | Stmt s -> s it root; result)
    Undefined prog.top
