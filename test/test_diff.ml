(* Differential testing of the vcc compiler: random expressions are
   compiled to vx code and executed, and the result is compared against a
   reference evaluator with C-on-x86 semantics (64-bit wrapping
   arithmetic, masked shift counts, truncating division). Also covers
   virtine-vs-native equivalence and image fault injection. *)

(* ------------------------------------------------------------------ *)
(* Random expression generator                                          *)
(* ------------------------------------------------------------------ *)

type expr =
  | Lit of int64
  | Var of int                   (* parameter index 0..2 *)
  | Un of string * expr
  | Bin of string * expr * expr
  | DivSafe of expr * int64      (* division by a nonzero literal *)
  | Cond of expr * expr * expr

let binops = [| "+"; "-"; "*"; "&"; "|"; "^"; "<<"; ">>"; "<"; "<="; ">"; ">="; "=="; "!=" |]
let unops = [| "-"; "~"; "!" |]

let gen_expr rng depth =
  let open QCheck.Gen in
  let rec go depth =
    if depth = 0 then
      oneof
        [
          map (fun v -> Lit (Int64.of_int v)) (int_range (-1000) 1000);
          map (fun i -> Var i) (int_range 0 2);
        ]
    else
      frequency
        [
          (2, map (fun v -> Lit (Int64.of_int v)) (int_range (-1000) 1000));
          (2, map (fun i -> Var i) (int_range 0 2));
          ( 3,
            let* op = oneofl (Array.to_list binops) in
            let* a = go (depth - 1) in
            let* b = go (depth - 1) in
            return (Bin (op, a, b)) );
          ( 1,
            let* op = oneofl (Array.to_list unops) in
            let* a = go (depth - 1) in
            return (Un (op, a)) );
          ( 1,
            let* a = go (depth - 1) in
            let* d = int_range 1 97 in
            return (DivSafe (a, Int64.of_int d)) );
          ( 1,
            let* c = go (depth - 1) in
            let* a = go (depth - 1) in
            let* b = go (depth - 1) in
            return (Cond (c, a, b)) );
        ]
  in
  go depth rng

(* render to virtine C *)
let rec to_c = function
  | Lit v -> if v < 0L then Printf.sprintf "(0 - %Ld)" (Int64.neg v) else Int64.to_string v
  | Var 0 -> "a"
  | Var 1 -> "b"
  | Var _ -> "c"
  | Un ("!", a) -> Printf.sprintf "(!%s)" (to_c a)
  | Un (op, a) -> Printf.sprintf "(%s%s)" op (to_c a)
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (to_c a) op (to_c b)
  | DivSafe (a, d) -> Printf.sprintf "(%s / %Ld)" (to_c a) d
  | Cond (c, a, b) -> Printf.sprintf "(%s ? %s : %s)" (to_c c) (to_c a) (to_c b)

(* reference evaluation with the target semantics *)
let rec eval env = function
  | Lit v -> v
  | Var i -> env.(i)
  | Un ("-", a) -> Int64.neg (eval env a)
  | Un ("~", a) -> Int64.lognot (eval env a)
  | Un ("!", a) -> if eval env a = 0L then 1L else 0L
  | Un (_, a) -> eval env a
  | Bin (op, a, b) -> (
      let x = eval env a in
      (* && / || would short-circuit; none generated *)
      let y = eval env b in
      let bool_ c = if c then 1L else 0L in
      match op with
      | "+" -> Int64.add x y
      | "-" -> Int64.sub x y
      | "*" -> Int64.mul x y
      | "&" -> Int64.logand x y
      | "|" -> Int64.logor x y
      | "^" -> Int64.logxor x y
      | "<<" -> Int64.shift_left x (Int64.to_int (Int64.logand y 63L))
      | ">>" -> Int64.shift_right_logical x (Int64.to_int (Int64.logand y 63L))
      | "<" -> bool_ (Int64.compare x y < 0)
      | "<=" -> bool_ (Int64.compare x y <= 0)
      | ">" -> bool_ (Int64.compare x y > 0)
      | ">=" -> bool_ (Int64.compare x y >= 0)
      | "==" -> bool_ (x = y)
      | "!=" -> bool_ (x <> y)
      | _ -> failwith "unknown op")
  | DivSafe (a, d) -> Int64.div (eval env a) d
  | Cond (c, a, b) -> if eval env c <> 0L then eval env a else eval env b

let print_case (e, args) =
  Printf.sprintf "f(%s) where f returns %s"
    (String.concat ", " (Array.to_list (Array.map Int64.to_string args)))
    (to_c e)

let gen_case =
  QCheck.Gen.(
    let* e = fun rng -> gen_expr rng 4 in
    let* args = array_size (return 3) (map Int64.of_int (int_range (-10000) 10000)) in
    return (e, args))

let arb_case = QCheck.make ~print:print_case gen_case

let compile_expr e =
  Vcc.Compile.compile ~snapshot:false
    (Printf.sprintf "int f(int a, int b, int c) { return %s; }" (to_c e))

let prop_native_matches_reference =
  QCheck.Test.make ~name:"compiled code matches reference semantics" ~count:250 arb_case
    (fun (e, args) ->
      let expected = eval args e in
      let compiled = compile_expr e in
      let clock = Cycles.Clock.create () in
      let got =
        Vcc.Compile.invoke_native ~clock compiled "f" (Array.to_list args) ()
      in
      got = expected)

let prop_virtine_matches_native =
  QCheck.Test.make ~name:"virtine result equals native result" ~count:40 arb_case
    (fun (e, args) ->
      let src = Printf.sprintf "virtine int f(int a, int b, int c) { return %s; }" (to_c e) in
      let compiled = Vcc.Compile.compile ~snapshot:false src in
      let clock = Cycles.Clock.create () in
      let native = Vcc.Compile.invoke_native ~clock compiled "f" (Array.to_list args) () in
      let w = Wasp.Runtime.create () in
      let r = Vcc.Compile.invoke w compiled "f" (Array.to_list args) () in
      r.Wasp.Runtime.return_value = native)

(* statement-level differential templates *)
let prop_loop_sum_matches =
  QCheck.Test.make ~name:"loop templates match reference" ~count:60
    QCheck.(pair (int_range 0 60) (int_range 1 9))
    (fun (n, step) ->
      let src =
        Printf.sprintf
          "int f(int n) { int s = 0; for (int i = 0; i < n; i = i + %d) { s = s + i; } return s; }"
          step
      in
      let compiled = Vcc.Compile.compile src in
      let clock = Cycles.Clock.create () in
      let got = Vcc.Compile.invoke_native ~clock compiled "f" [ Int64.of_int n ] () in
      let expected =
        let s = ref 0 and i = ref 0 in
        while !i < n do
          s := !s + !i;
          i := !i + step
        done;
        Int64.of_int !s
      in
      got = expected)

(* ------------------------------------------------------------------ *)
(* Fault injection: corrupted images must be contained                  *)
(* ------------------------------------------------------------------ *)

let fib_image =
  let c =
    Vcc.Compile.compile ~snapshot:false
      "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"
  in
  match Vcc.Compile.find_virtine c "fib" with
  | Some vi -> vi.Vcc.Compile.image
  | None -> assert false

let prop_corrupted_images_contained =
  QCheck.Test.make ~name:"bit-flipped images never escape isolation" ~count:150
    QCheck.(pair (int_bound (Wasp.Image.size fib_image - 1)) (int_range 1 255))
    (fun (offset, flip) ->
      let code = Bytes.copy fib_image.Wasp.Image.code in
      Bytes.set code offset
        (Char.chr (Char.code (Bytes.get code offset) lxor flip));
      let image = { fib_image with Wasp.Image.code = code } in
      let w = Wasp.Runtime.create () in
      let r = Wasp.Runtime.run w image ~args:[ 8L ] ~fuel:200_000 () in
      (* any outcome is fine -- what matters is that the host survived and
         the runtime still works afterwards *)
      ignore r.Wasp.Runtime.outcome;
      let check = Wasp.Runtime.run w fib_image ~args:[ 8L ] () in
      check.Wasp.Runtime.return_value = 21L)

let prop_snapshot_restore_is_exact =
  QCheck.Test.make ~name:"snapshot restore reproduces results exactly" ~count:30
    QCheck.(int_range 0 15)
    (fun n ->
      let src = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }" in
      let compiled = Vcc.Compile.compile ~snapshot:true src in
      let w = Wasp.Runtime.create () in
      let arg = Int64.of_int n in
      let r1 = Vcc.Compile.invoke w compiled "fib" [ arg ] () in
      let r2 = Vcc.Compile.invoke w compiled "fib" [ arg ] () in
      let r3 = Vcc.Compile.invoke w compiled "fib" [ arg ] () in
      r1.Wasp.Runtime.return_value = r2.Wasp.Runtime.return_value
      && r2.Wasp.Runtime.return_value = r3.Wasp.Runtime.return_value
      && r3.Wasp.Runtime.from_snapshot)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "differential"
    [
      qsuite "compiler"
        [
          prop_native_matches_reference;
          prop_virtine_matches_native;
          prop_loop_sum_matches;
        ];
      qsuite "robustness" [ prop_corrupted_images_contained; prop_snapshot_restore_is_exact ];
    ]
