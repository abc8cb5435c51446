(* Tests for the vjs JavaScript engine and the Figure 14 workload. *)

module V = Vjs.Jsvalue

(* ------------------------------------------------------------------ *)
(* Differential equivalence against the tree walker (Jsref)             *)
(* ------------------------------------------------------------------ *)

(* What one engine observed running a script and then calling its
   functions: per entry the result or error, the step count and the
   total charged once it returned, then the console. Each engine has a
   [clock()] native that reads the running total, so a program that
   prints it also checks that every node evaluated before a native had
   reached the hook when the native ran. How often the hook was called
   is not compared: the tree walker calls it per node, the compiled
   engine per host boundary. *)
type observed = { entries : (string * int * int) list; console : string }

let show = function
  | Ok v -> Printf.sprintf "ok %s %s %s" (V.type_name v) (V.to_string v) (Vjs.Json.stringify v)
  | Error msg -> "error " ^ msg

let observe ~create ~register ~eval ~call ~steps ~console src calls =
  let charged = ref 0 in
  let e = create (fun c -> charged := !charged + c) in
  register e "clock" (fun _ -> V.Num (float_of_int !charged));
  let entry r = (show r, steps e, !charged) in
  let first = entry (eval e src) in
  let rest = List.map (fun (name, args) -> entry (call e name (args ()))) calls in
  { entries = first :: rest; console = console e }

(* each engine's hook prices what it receives with its [cost] *)
let compiled ~cost ?max_steps =
  observe
    ~create:(fun add -> Vjs.Engine.create ~charge:(fun c -> add (cost c)) ?max_steps ())
    ~register:Vjs.Engine.register ~eval:Vjs.Engine.eval ~call:Vjs.Engine.call
    ~steps:Vjs.Engine.steps ~console:Vjs.Engine.console_output

let reference ~cost ?max_steps =
  observe
    ~create:(fun add -> Jsref.create ~charge:(fun c -> add (cost c)) ?max_steps ())
    ~register:Jsref.register ~eval:Jsref.eval ~call:Jsref.call ~steps:Jsref.steps
    ~console:Jsref.console_output

(* the (compiled, reference) prices: the engine's own rates, and
   OpenWhisk's V8 model against a tree walker whose hook truncates each
   of its calls separately, as OpenWhisk's did per node *)
let own_rates = (Vjs.Engine.cycles, Fun.id)

let v8_rates =
  ( Serverless.Openwhisk.v8_cycles,
    fun c -> int_of_float (float_of_int c /. Serverless.Openwhisk.v8_speedup) )

(* [calls] are (global function, arguments); each engine gets its own
   arguments, since a call may mutate them *)
let mismatch ?max_steps ?(calls = []) ?(rates = own_rates) src =
  let c = compiled ~cost:(fst rates) ?max_steps src calls
  and r = reference ~cost:(snd rates) ?max_steps src calls in
  if c = r then None
  else
    let side o =
      Printf.sprintf "entries [%s]; console %S"
        (String.concat "; "
           (List.map
              (fun (res, st, ch) -> Printf.sprintf "%s (%d steps, %d cycles)" res st ch)
              o.entries))
        o.console
    in
    Some
      (Printf.sprintf "%s\n(max_steps %s)\n compiled:  %s\n reference: %s" src
         (match max_steps with Some n -> string_of_int n | None -> "default")
         (side c) (side r))

let check_equivalent ?max_steps ?calls ?rates src =
  match mismatch ?max_steps ?calls ?rates src with
  | None -> ()
  | Some report -> Alcotest.failf "compiled engine differs from the tree walker on\n%s" report

(* every snippet the language tests evaluate also runs on both engines *)
let eval_checked src =
  check_equivalent src;
  Vjs.Engine.eval (Vjs.Engine.create ()) src

let eval_num src =
  match eval_checked src with
  | Ok (V.Num n) -> n
  | Ok v -> Alcotest.failf "expected number, got %s" (V.to_string v)
  | Error msg -> Alcotest.failf "js error: %s" msg

let eval_str src =
  match eval_checked src with
  | Ok (V.Str s) -> s
  | Ok v -> Alcotest.failf "expected string, got %s" (V.to_string v)
  | Error msg -> Alcotest.failf "js error: %s" msg

let eval_value src =
  match eval_checked src with
  | Ok v -> v
  | Error msg -> Alcotest.failf "js error: %s" msg

let fnum = Alcotest.(check (float 1e-9))

let test_arithmetic () =
  fnum "arith" 14.0 (eval_num "2 + 3 * 4");
  fnum "paren" 20.0 (eval_num "(2 + 3) * 4");
  fnum "float div" 2.5 (eval_num "5 / 2");
  fnum "mod" 1.0 (eval_num "7 % 3");
  fnum "neg" (-6.0) (eval_num "-2 * 3")

let test_variables () =
  fnum "var" 15.0 (eval_num "var x = 5; x * 3");
  fnum "assign" 7.0 (eval_num "var x = 1; x = 7; x");
  fnum "compound" 12.0 (eval_num "var x = 3; x += 9; x")

let test_strings () =
  Alcotest.(check string) "concat" "hello world" (eval_str {|"hello" + " " + "world"|});
  fnum "length" 5.0 (eval_num {|"hello".length|});
  Alcotest.(check string) "charAt" "e" (eval_str {|"hello".charAt(1)|});
  fnum "charCodeAt" 104.0 (eval_num {|"hello".charCodeAt(0)|});
  Alcotest.(check string) "fromCharCode" "AB" (eval_str "String.fromCharCode(65, 66)");
  Alcotest.(check string) "substring" "ell" (eval_str {|"hello".substring(1, 4)|});
  fnum "indexOf" 2.0 (eval_num {|"hello".indexOf("ll")|});
  Alcotest.(check string) "upper" "HI" (eval_str {|"hi".toUpperCase()|});
  Alcotest.(check string) "number to string" "42x" (eval_str {|42 + "x"|})

let test_bitwise () =
  (* JS ToInt32 semantics *)
  fnum "and" 4.0 (eval_num "12 & 6");
  fnum "or" 14.0 (eval_num "12 | 6");
  fnum "xor" 10.0 (eval_num "12 ^ 6");
  fnum "shl" 48.0 (eval_num "12 << 2");
  fnum "shr" 3.0 (eval_num "12 >> 2");
  fnum "not" (-13.0) (eval_num "~12")

let test_comparisons () =
  fnum "lt true" 1.0 (eval_num "(1 < 2) ? 1 : 0");
  fnum "strict eq" 0.0 (eval_num {|(1 === "1") ? 1 : 0|});
  fnum "loose eq" 1.0 (eval_num {|(1 == "1") ? 1 : 0|});
  fnum "strict neq" 1.0 (eval_num {|(1 !== "1") ? 1 : 0|})

let test_control_flow () =
  fnum "if" 10.0 (eval_num "var x = 0; if (true) { x = 10; } else { x = 20; } x");
  fnum "while" 45.0
    (eval_num "var s = 0; var i = 0; while (i < 10) { s += i; i++; } s");
  fnum "for" 45.0 (eval_num "var s = 0; for (var i = 0; i < 10; i++) { s += i; } s");
  fnum "break" 3.0
    (eval_num "var i = 0; while (true) { if (i === 3) { break; } i++; } i");
  fnum "continue" 25.0
    (eval_num
       "var s = 0; for (var i = 0; i < 10; i++) { if (i % 2 === 0) { continue; } s += i; } s")

let test_functions () =
  fnum "call" 7.0 (eval_num "function add(a, b) { return a + b; } add(3, 4)");
  fnum "recursion" 120.0
    (eval_num "function fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); } fact(5)");
  fnum "hoisting" 9.0 (eval_num "var r = sq(3); function sq(x) { return x * x; } r");
  fnum "expression fn" 16.0 (eval_num "var f = function(x) { return x * x; }; f(4)")

let test_closures () =
  fnum "closure" 15.0
    (eval_num
       {|function adder(n) { return function(x) { return x + n; }; }
         var add5 = adder(5);
         add5(10)|});
  fnum "closure state" 3.0
    (eval_num
       {|function counter() { var c = 0; return function() { c = c + 1; return c; }; }
         var next = counter();
         next(); next(); next()|})

let test_arrays () =
  fnum "literal index" 20.0 (eval_num "var a = [10, 20, 30]; a[1]");
  fnum "length" 3.0 (eval_num "[1,2,3].length");
  fnum "push" 4.0 (eval_num "var a = [1,2,3]; a.push(9); a.length");
  fnum "pop" 3.0 (eval_num "var a = [1,2,3]; a.pop()");
  Alcotest.(check string) "join" "1-2-3" (eval_str {|[1,2,3].join("-")|});
  fnum "assign element" 99.0 (eval_num "var a = [0]; a[0] = 99; a[0]");
  fnum "grow" 5.0 (eval_num "var a = []; a[4] = 1; a.length")

let test_objects () =
  fnum "literal" 42.0 (eval_num "var o = { x: 42 }; o.x");
  fnum "assign prop" 10.0 (eval_num "var o = {}; o.y = 10; o.y");
  fnum "index string" 7.0 (eval_num {|var o = { k: 7 }; o["k"]|});
  Alcotest.(check string) "typeof" "object" (eval_str "typeof {}")

let test_array_higher_order () =
  fnum "map" 6.0 (eval_num "[1,2,3].map(function(x) { return x * 2; })[2]");
  fnum "filter" 2.0 (eval_num "[1,2,3,4].filter(function(x) { return x % 2 === 0; }).length");
  fnum "reduce" 10.0 (eval_num "[1,2,3,4].reduce(function(a, x) { return a + x; }, 0)");
  fnum "reduce no seed" 24.0 (eval_num "[2,3,4].reduce(function(a, x) { return a * x; })");
  fnum "forEach" 12.0
    (eval_num "var s = 0; [1,2,3].forEach(function(x) { s += x * 2; }); s");
  fnum "concat" 5.0 (eval_num "[1,2].concat([3,4,5]).length");
  fnum "reverse" 3.0 (eval_num "[1,2,3].reverse()[0]")

let test_json () =
  Alcotest.(check string) "stringify object" {|{"a":1,"b":[true,null,"x"]}|}
    (eval_str {|JSON.stringify({ a: 1, b: [true, null, "x"] })|});
  Alcotest.(check string) "stringify escapes" "\"a\\nb\"" (eval_str "JSON.stringify(\"a\\nb\")");
  fnum "parse number" 42.0 (eval_num {|JSON.parse("42")|});
  fnum "parse nested" 7.0
    (eval_num "JSON.parse(\"{\\\"x\\\": [1, {\\\"y\\\": 7}]}\").x[1].y");
  fnum "roundtrip" 3.0
    (eval_num {|JSON.parse(JSON.stringify({ k: [1, 2, 3] })).k.length|});
  (* parse errors surface as JS errors, not crashes *)
  let e = Vjs.Engine.create () in
  match Vjs.Engine.eval e {|JSON.parse("{bad json")|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_try_catch () =
  fnum "catch" 7.0 (eval_num {|var r = 0; try { throw 7; r = 1; } catch (e) { r = e; } r|});
  fnum "no throw" 1.0 (eval_num "var r = 0; try { r = 1; } catch (e) { r = 2; } r");
  fnum "finally always" 3.0
    (eval_num "var r = 0; try { r = 1; } finally { r = 3; } r");
  fnum "finally after catch" 5.0
    (eval_num "var r = 0; try { throw 1; } catch (e) { r = 4; } finally { r = r + 1; } r");
  Alcotest.(check string) "throw value" "boom"
    (eval_str {|var r = ""; try { throw "boom"; } catch (e) { r = e; } r|});
  (* runtime errors are catchable *)
  fnum "catch runtime error" 9.0
    (eval_num "var r = 0; try { undefined_fn(); } catch (e) { r = 9; } r");
  (* throws propagate through calls *)
  fnum "propagation" 42.0
    (eval_num
       {|function inner() { throw 42; }
         function outer() { inner(); return 0; }
         var r = 0;
         try { outer(); } catch (e) { r = e; }
         r|})

let test_uncaught_throw_is_error () =
  let e = Vjs.Engine.create () in
  (match Vjs.Engine.eval e "throw 5;" with
  | Error msg -> Alcotest.(check bool) "uncaught" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected error");
  (* engine survives *)
  match Vjs.Engine.eval e "1 + 1" with
  | Ok (V.Num 2.0) -> ()
  | _ -> Alcotest.fail "engine should survive a throw"

let test_math_builtins () =
  fnum "floor" 3.0 (eval_num "Math.floor(3.9)");
  fnum "max" 9.0 (eval_num "Math.max(1, 9, 4)");
  fnum "abs" 5.0 (eval_num "Math.abs(0 - 5)");
  fnum "pow" 8.0 (eval_num "Math.pow(2, 3)")

let test_truthiness () =
  fnum "empty string falsy" 0.0 (eval_num {|"" ? 1 : 0|});
  fnum "zero falsy" 0.0 (eval_num "0 ? 1 : 0");
  fnum "null falsy" 0.0 (eval_num "null ? 1 : 0");
  fnum "object truthy" 1.0 (eval_num "({}) ? 1 : 0");
  (* && returns the first falsy operand without evaluating the rest *)
  match eval_value "false && missing_fn()" with
  | V.Bool false -> ()
  | v -> Alcotest.failf "shortcircuit: got %s" (V.to_string v)

let test_errors () =
  let e = Vjs.Engine.create () in
  (match Vjs.Engine.eval e "undefined_variable_xyz" with
  | Error msg -> Alcotest.(check bool) "reference error" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected error");
  (match Vjs.Engine.eval e "var x = (" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected syntax error");
  (* the engine survives errors *)
  match Vjs.Engine.eval e "1 + 1" with
  | Ok (V.Num 2.0) -> ()
  | _ -> Alcotest.fail "engine should survive"

let test_step_budget () =
  let e = Vjs.Engine.create () in
  match Vjs.Engine.eval e "while (true) { }" with
  | Error msg -> Alcotest.(check bool) "budget error" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected step budget error"

let test_native_bindings () =
  let e = Vjs.Engine.create () in
  Vjs.Engine.register e "host_add" (fun args ->
      match args with
      | [ V.Num a; V.Num b ] -> V.Num (a +. b)
      | _ -> V.Undefined);
  match Vjs.Engine.eval e "host_add(20, 22)" with
  | Ok (V.Num 42.0) -> ()
  | other ->
      Alcotest.failf "binding failed: %s"
        (match other with Ok v -> V.to_string v | Error e -> e)

let test_print_console () =
  let e = Vjs.Engine.create () in
  (match Vjs.Engine.eval e {|print("hello", 42)|} with Ok _ -> () | Error m -> Alcotest.fail m);
  Alcotest.(check string) "console" "hello 42\n" (Vjs.Engine.console_output e)

let test_engine_charges () =
  let total = ref 0 in
  let e = Vjs.Engine.create ~charge:(fun c -> total := !total + Vjs.Engine.cycles c) () in
  Alcotest.(check bool) "alloc charged" true (!total >= Vjs.Engine.context_alloc_cycles);
  let before = !total in
  (match Vjs.Engine.eval e "1 + 1" with Ok _ -> () | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "eval charged" true (!total > before);
  let before = !total in
  Vjs.Engine.destroy e;
  Alcotest.(check int) "teardown charged" (before + Vjs.Engine.teardown_cycles) !total

let test_stray_break_continue () =
  (* outside a loop of the same function, as in JavaScript *)
  List.iter
    (fun (src, want) ->
      let e = Vjs.Engine.create () in
      (match Vjs.Engine.eval e src with
      | Error msg -> Alcotest.(check string) src want msg
      | Ok v -> Alcotest.failf "%s: evaluated to %s" src (V.to_string v));
      (match Vjs.Engine.call e "f" [ V.Num 1.0 ] with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%s: f returned %s" src (V.to_string v));
      check_equivalent ~calls:[ ("f", fun () -> [ V.Num 1.0 ]) ] src)
    [
      ("break;", "SyntaxError (line 1): illegal break statement outside a loop");
      ( "function f(d) {\n  if (d) { continue; }\n}",
        "SyntaxError (line 2): illegal continue statement outside a loop" );
      ( "function f(d) { while (d) { var g = function() { break; }; } }",
        "SyntaxError (line 1): illegal break statement outside a loop" );
    ];
  (* inside a loop, nested blocks and try are fine *)
  fnum "nested" 4.0
    (eval_num
       "var n = 0; for (var i = 0; i < 9; i++) { try { if (i === 3) { break; } } finally { n++; } } n")

let test_program_shared_by_engines () =
  (* one compiled program, two engines: state and charges stay apart *)
  let p = Vjs.Engine.compile "var n = 0; function bump() { n = n + 1; return n; }" in
  let engine () =
    let cycles = ref 0 in
    let e = Vjs.Engine.create ~charge:(fun c -> cycles := !cycles + Vjs.Engine.cycles c) () in
    (match Vjs.Engine.run e p with Ok _ -> () | Error m -> Alcotest.fail m);
    (e, cycles)
  in
  let a, a_cycles = engine () and b, b_cycles = engine () in
  let bump e = match Vjs.Engine.call e "bump" [] with Ok (V.Num n) -> n | _ -> nan in
  ignore (bump a);
  let b_before = !b_cycles and a_before = !a_cycles in
  fnum "a's second bump" 2.0 (bump a);
  Alcotest.(check int) "a's call charges only a" b_before !b_cycles;
  Alcotest.(check bool) "a was charged" true (!a_cycles > a_before);
  fnum "b's first bump" 1.0 (bump b)

(* snippets the engine tests above evaluate directly, plus edge cases of
   the evaluator's scoping and cost rules *)
let engine_snippets =
  [
    "undefined_variable_xyz";
    "var x = (";
    "var s = \"unterminated";
    "1 + 1";
    "throw 5;";
    "print(\"hello\", 42)";
    {|JSON.parse("{bad json")|};
    "return 4;";
    "try { return 1; } finally { print(2); }";
    (* var is local to an if branch, block or loop iteration *)
    "if (true) { var x = 1; } typeof x";
    "var x = 1; { var x = 2; } x";
    "var fs = []; for (var i = 0; i < 3; i++) { var j = i * 10; fs.push(function() { return j; }); } fs[0]() + fs[2]()";
    "for (var i = 0; i < 2; i++) { } typeof i";
    (* a later declaration in the same block resolves outward until it runs *)
    "var x = 1; function f() { var y = x; var x = 2; return y + x; } f()";
    "var x = 1; function f() { var g = function() { return x; }; var a = g(); var x = 5; return a + g(); } f()";
    (* var x; rebinds to undefined *)
    "var x = 3; var x; typeof x";
    "function f(a) { var a; return typeof a; } f(1)";
    "function f(a, a) { return a; } f(1, 2)";
    (* implicit globals and typeof of undeclared names *)
    "function f() { z = 7; } f(); z";
    "typeof nope + typeof 1 + typeof print + typeof null + typeof {}";
    "function f() { return inner(); function inner() { return 1; } } f()";
    "var r = sq(3); function sq(x) { return x * x; } function sq(x) { return -x; } r";
    "function f() {} var a = f; a === f";
    "function mk() { return function() {}; } mk() === mk()";
    "var o = { a: 1 }; o.b = o.a + 1; o[\"c\"] = 3; JSON.stringify(o)";
    "var a = [1, 2]; a[5] = 3; a.length + \":\" + a";
    "var s = \"abc\"; s.x";
    "var n = 5; n.foo()";
    "var n = 5; n[0] = 1";
    "({}).nope()";
    "\"abc\".nope()";
    "[].nope()";
    "var a = [3, 1]; a.reduce(function(x, y) { return x - y; })";
    "[].reduce(function(x, y) { return x; })";
    "var a = [1, 2, 3]; a.map(function(x) { a.push(x); return x; }).length + a.length";
    "var i = 0; var t = 0; while (i < 10) { i++; if (i % 2) { continue; } if (i > 7) { break; } t += i; } t";
    "var k = 0; for (;;) { k++; if (k > 4) { break; } } k";
    "var t = \"\"; for (var i = 0; i < 3; i++) { try { if (i == 1) { continue; } t += i; } finally { t += \"f\"; } } t";
    "function f() { try { throw 1; } catch (e) { return e + 1; } finally { print(\"fin\"); } } f()";
    "function f() { try { return 1; } finally { return 2; } } f()";
    "var r = 0; try { try { throw 1; } finally { r = 5; } } catch (e) { r += e; } r";
    "try { nope(); } catch (e) { e }";
    "try { throw 1; } catch { print(typeof __caught); }";
    "1 < \"2\" && \"b\" > \"a\" && !(NaN < 1) && 0 == \"\" && null == undefined";
    "~5 + (7 >> 1) + (1 << 33) + (-7 % 3) + (5 ^ 3) + (6 | 1) + (6 & 3)";
    "var a = [1, 2]; a[0] += 5; a[0]++; a[0]";
    (* an assignment evaluates the value, then the target's receiver and
       index; x += e evaluates the target's subexpressions twice *)
    "var log = \"\"; function k(s) { log += s; return 0; } var a = [1]; var o = {}; a[k(\"i\")] = k(\"v\"); o[k(\"j\")] = k(\"w\"); a[k(\"x\")] += k(\"y\"); log";
    "var log = \"\"; var o = {}; function r() { log += \"r\"; return o; } r().p = (log += \"v\"); log";
    "\"abcdef\".slice(-3) + \"abcdef\".substring(4, 1) + \"a,b\".split(\",\").length + \"ab\".split(\"\")";
    "[1, 2, 3].slice(1).concat(4).join(\"-\") + [1, 2].indexOf(2) + [3, 1].reverse()";
    "parseInt(\" -42x\") + Math.min(3, 1) + Math.sqrt(16) + Math.ceil(0.5) + Math.PI";
    "x = ;";
    "var 1x;";
    "0x1F + 0xff";
    "/* unterminated";
    "var a = 1 // comment\n; a";
  ]

let test_engine_snippets () = List.iter (fun src -> check_equivalent src) engine_snippets

let byte_array size () = [ V.of_bytes (Vjs.Workload.make_input ~size) ]

(* a row of the udf figure's table *)
let row i =
  let tbl = Hashtbl.create 2 in
  Hashtbl.replace tbl "id" (V.Num (float_of_int i));
  Hashtbl.replace tbl "v" (V.Num (float_of_int (i * 7)));
  V.Obj tbl

let payloads = [ 0; 1; 2; 3; 16; 256; 1024 ]

let test_workload_sources () =
  List.iter
    (fun (src, entry) ->
      List.iter (fun size -> check_equivalent ~calls:[ (entry, byte_array size) ] src) payloads)
    [
      (Vjs.Workload.base64_js_source, "encode");
      (Js_sources.checksum, "checksum");
      (Js_sources.range, "range");
    ];
  List.iter
    (fun n ->
      check_equivalent
        ~calls:
          [
            ("__vdb_batch", fun () -> [ V.Arr (V.vec_of_list (List.init n row)) ]);
            ("pred", fun () -> [ row n ]);
          ]
        Js_sources.udf)
    payloads

(* every node kind, with the budget error caught and rethrown through
   catch and finally *)
let kitchen_sink =
  {|var log = [];
function f(a, b) { var t = typeof a; if (a > b) { return [a, b, t]; } else { return { k: a - b }; } }
var g = function(x) { return x ? -x : ~x; };
for (var i = 0; i < 3; i++) {
  var r = f(i, 1);
  try { log.push(g(i) + r.length); if (i == 1) { continue; } throw i; }
  catch (e) { log.push(e + "!"); }
  finally { log.push(typeof missing); }
}
var w = 0;
while (true) { w++; if (w >= 2) { break; } }
var s = "xy".charAt(1) + [1, 2].join("") + log.length;
{ var o = { a: 1 }; o.b = o["a"] + w; }
try { print(s, o.b, !w, null, undefined); } catch (e) { print("caught " + e); }
log[0] = s;
log|}

(* OpenWhisk prices a delivery of n nodes at 4n: the same total, and
   the same running total at every native, as truncating 22 / 5 at each
   node separately *)
let test_v8_rates () =
  List.iter (fun src -> check_equivalent ~rates:v8_rates src) engine_snippets;
  List.iter
    (fun (src, entry) ->
      List.iter
        (fun size -> check_equivalent ~rates:v8_rates ~calls:[ (entry, byte_array size) ] src)
        payloads)
    [
      (Vjs.Workload.base64_js_source, "encode");
      (Js_sources.checksum, "checksum");
      (Js_sources.range, "range");
    ];
  check_equivalent ~rates:v8_rates kitchen_sink

(* the hook is called per host boundary, not per node: a warm checksum
   of 1 KB evaluates ~21k nodes and crosses no native *)
let test_hook_calls_per_boundary () =
  let calls = ref 0 and total = ref 0 in
  let e =
    Vjs.Engine.create
      ~charge:(fun c ->
        incr calls;
        total := !total + Vjs.Engine.cycles c)
      ()
  in
  (match Vjs.Engine.eval e Js_sources.checksum with Ok _ -> () | Error m -> Alcotest.fail m);
  let checksum () =
    match Vjs.Engine.call e "checksum" (byte_array 1024 ()) with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  in
  checksum ();
  calls := 0;
  total := 0;
  checksum ();
  Alcotest.(check bool)
    (Printf.sprintf "%d hook calls for %d nodes" !calls (Vjs.Engine.steps e))
    true
    (!calls >= 1 && !calls <= 4 && Vjs.Engine.steps e > 20_000);
  Alcotest.(check int) "every node charged" (Vjs.Engine.steps e * Vjs.Jsinterp.cost_per_node) !total

(* no array or string grows past Jsvalue.max_length: each of these
   once grew the host heap until it raised Out_of_memory *)
let length_bound_programs =
  [
    "var a = []; a[67108864] = 1;";
    "var a = []; a[1099511627776] = 1;";
    "var c = [3]; c[(1 << -2)] = 1;";
    "var s = \"x\"; while (true) { s = s + s; }";
  ]

let test_length_bound () =
  List.iter
    (fun src ->
      check_equivalent src;
      match Vjs.Engine.eval (Vjs.Engine.create ()) src with
      | Error msg ->
          Alcotest.(check bool) (src ^ ": " ^ msg) true (String.starts_with ~prefix:"RangeError" msg)
      | Ok v -> Alcotest.failf "%s: evaluated to %s" src (V.to_string v))
    length_bound_programs;
  (* the error is catchable, and an array may reach the bound *)
  fnum "caught" 1.0 (eval_num "var r = 0; try { var a = []; a[4194304] = 1; } catch (e) { r = 1; } r");
  let v = V.vec_create () in
  V.vec_set v (V.max_length - 1) V.Undefined;
  Alcotest.(check int) "longest array" V.max_length v.V.len

let test_step_budget_sweep () =
  for max_steps = 1 to 300 do
    check_equivalent ~max_steps kitchen_sink;
    check_equivalent ~max_steps ~calls:[ ("checksum", byte_array 16) ] Js_sources.checksum
  done

(* ------------------------------------------------------------------ *)
(* Random programs: the compiled engine against the tree walker         *)
(* ------------------------------------------------------------------ *)

(* Programs over a fixed identifier pool, so scopes collide: per-iteration
   var, closures made in loops, implicit globals ([z] is declared
   nowhere), typeof of undeclared names, shadowed parameters, and
   try/catch/finally around return, break, continue and throw. Arrays
   only ever hold numbers, so printing a value terminates. *)
module Gen_js = struct
  open QCheck.Gen

  let ident = frequency [ (12, oneofl [ "a"; "b"; "c"; "i"; "f"; "g" ]); (1, return "z") ]
  let any_ident = oneof [ ident; oneofl [ "u"; "z"; "print" ] ]

  let rec expr d =
    let leaf =
      frequency
        [
          (3, map string_of_int (int_range (-2) 9));
          (1, return {|"s"|});
          (1, oneofl [ "true"; "false"; "null"; "undefined" ]);
          (4, ident);
        ]
    in
    if d <= 0 then leaf
    else
      let sub = expr (d - 1) in
      frequency
        [
          (3, leaf);
          ( 4,
            map3
              (fun a op b -> Printf.sprintf "(%s %s %s)" a op b)
              sub
              (oneofl [ "+"; "-"; "*"; "%"; "<"; "==="; "=="; "!="; "&&"; "||"; "&"; "<<" ])
              sub );
          (2, map2 (Printf.sprintf "(%s = %s)") (oneof [ ident; return "z" ]) sub);
          (1, map2 (Printf.sprintf "(%s += %s)") ident sub);
          (1, map (Printf.sprintf "(%s++)") ident);
          (2, map (Printf.sprintf "typeof %s") any_ident);
          (2, map2 (Printf.sprintf "%s(%s)") ident sub);
          (1, map3 (Printf.sprintf "(%s ? %s : %s)") sub sub sub);
          (1, map2 (Printf.sprintf "[+%s, +%s]") sub sub);
          (1, map2 (Printf.sprintf "%s[%s]") ident sub);
          (1, map3 (Printf.sprintf "(%s[%s] = +%s)") ident sub sub);
          (1, map (Printf.sprintf "%s.length") ident);
          (1, map2 (Printf.sprintf "%s.push(+%s)") ident sub);
          (1, map (Printf.sprintf "(!%s)") sub);
          (1, map (Printf.sprintf "(function(a) { %s })") (block ~loop:false ~fn:true (d - 1)));
        ]

  and stmt ~loop ~fn d =
    let e = expr (min d 2) in
    let body ~loop = block ~loop ~fn (d - 1) in
    let simple =
      [
        (3, map2 (Printf.sprintf "var %s = %s;") ident e);
        (1, map (Printf.sprintf "var %s;") ident);
        (3, map (Printf.sprintf "%s;") e);
        (1, map (Printf.sprintf "print(%s);") e);
        (1, return "print(clock());");
        (1, map (Printf.sprintf "throw %s;") e);
      ]
      @ (if fn then [ (2, map (Printf.sprintf "return %s;") e) ] else [])
      @ if loop then [ (1, return "break;"); (1, return "continue;") ] else []
    in
    if d <= 0 then frequency simple
    else
      frequency
        (simple
        @ [
            (2, map3 (Printf.sprintf "if (%s) { %s } else { %s }") e (body ~loop) (body ~loop));
            ( 2,
              map2
                (Printf.sprintf "for (var i = 0; i < %d; i++) { %s }")
                (int_range 0 3) (body ~loop:true) );
            ( 1,
              map2
                (fun n b -> Printf.sprintf "var c = %d; while (c > 0) { c--; %s }" n b)
                (int_range 0 3) (body ~loop:true) );
            ( 1,
              map
                (Printf.sprintf "for (var i = 0; i < 3; i++) { var b = i; g = function() { return b; }; %s }")
                (body ~loop:true) );
            ( 2,
              map3
                (fun name params b -> Printf.sprintf "function %s(%s) { %s }" name params b)
                (oneofl [ "f"; "g" ])
                (oneofl [ ""; "a"; "a, b"; "i, a"; "a, a" ])
                (block ~loop:false ~fn:true (d - 1)) );
            ( 2,
              map3
                (Printf.sprintf "try { %s } catch (a) { %s }%s")
                (body ~loop) (body ~loop)
                (oneof [ return ""; map (Printf.sprintf " finally { %s }") (body ~loop) ]) );
            (1, map (Printf.sprintf "try { %s } finally { print(9); }") (body ~loop));
            (1, map (Printf.sprintf "{ %s }") (body ~loop));
          ])

  and block ~loop ~fn d =
    map (String.concat " ") (list_size (int_range 1 3) (stmt ~loop ~fn d))

  let program =
    map
      (fun b ->
        "var a = 1; var b = 2; var c = [3]; var i = 0; function f(a, b) { return a; } function g() \
         { return i; } "
        ^ b ^ " print(typeof a, typeof b, typeof c, typeof i, typeof z); [+a, +b, +c]")
      (block ~loop:false ~fn:false 3)
end

(* the in-place lexer against the reference's, on strings built from
   pieces of punctuators, comments, numbers, quotes and escapes *)
let prop_lexer =
  let lex tokenize src =
    match tokenize src with
    | toks -> Ok toks
    | exception Vjs.Jslex.Error { line; msg } -> Error (line, msg)
  in
  let pieces =
    [ "<"; "<<"; ">"; ">>"; "="; "=="; "!"; "&"; "|"; "+"; "-"; "*"; "/"; "%"; "("; "]"; ";"; ".";
      "?"; "~"; "#"; "//"; "/*"; "*/"; "0"; "0x"; "X"; "1f"; "7."; "x"; "_a1"; "var"; "typeof";
      "\""; "'"; "\\"; "\\n"; " "; "\n" ]
  in
  QCheck.Test.make ~name:"lexer = reference lexer" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(map (String.concat "") (list_size (int_range 0 12) (oneofl pieces))))
    (fun src -> lex Vjs.Jslex.tokenize src = lex Jsref.tokenize src)

let prop_random_programs =
  QCheck.Test.make ~name:"random programs: compiled = tree walker" ~count:1000
    (QCheck.make ~print:Fun.id Gen_js.program) (fun src ->
      let calls = [ ("f", fun () -> [ V.Num 2.0; V.Num 3.0 ]); ("g", fun () -> [ V.Num 1.0 ]) ] in
      List.for_all
        (fun (max_steps, rates) ->
          match mismatch ~max_steps ~calls ~rates src with
          | None -> true
          | Some report -> QCheck.Test.fail_report report)
        [ (5_000, own_rates); (37, own_rates); (150, own_rates); (5_000, v8_rates) ])

(* ------------------------------------------------------------------ *)
(* The base64 workload (§6.5)                                           *)
(* ------------------------------------------------------------------ *)

let test_workload_baseline_correct () =
  let input = Vjs.Workload.make_input ~size:300 in
  let clock = Cycles.Clock.create () in
  let out = Vjs.Workload.run_baseline ~clock ~input in
  Alcotest.(check string) "matches reference" (Vjs.Workload.reference_encode input) out.output;
  Alcotest.(check bool) "charged" true (out.latency_cycles > 0L)

let test_workload_baseline_sizes () =
  let clock = Cycles.Clock.create () in
  List.iter
    (fun size ->
      let input = Vjs.Workload.make_input ~size in
      let out = Vjs.Workload.run_baseline ~clock ~input in
      Alcotest.(check string)
        (Printf.sprintf "size %d" size)
        (Vjs.Workload.reference_encode input)
        out.output)
    [ 0; 1; 2; 3; 4; 100 ]

(* Figure 14's isolate: the base64 UDF with one arm's optimizations *)
let b64_isolate ~snapshot ~teardown w ~key =
  Vjs.Isolate.create ~snapshot ~teardown w ~key ~source:Vjs.Workload.base64_js_source
    ~entry:"encode"

let virtine_run iso input =
  match Vjs.Workload.run_virtine iso ~input with
  | Ok out, cycles -> (out, cycles)
  | Error e, _ -> Alcotest.fail e

let test_workload_virtine_correct () =
  let w = Wasp.Runtime.create () in
  let input = Vjs.Workload.make_input ~size:300 in
  let out, _ = virtine_run (b64_isolate ~snapshot:false ~teardown:true w ~key:"k1") input in
  Alcotest.(check string) "virtine output" (Vjs.Workload.reference_encode input) out

let test_workload_snapshot_correct_and_faster () =
  let w = Wasp.Runtime.create () in
  let input = Vjs.Workload.make_input ~size:300 in
  let iso = b64_isolate ~snapshot:true ~teardown:true w ~key:"k2" in
  let _, c1 = virtine_run iso input in
  let out, c2 = virtine_run iso input in
  Alcotest.(check string) "still correct" (Vjs.Workload.reference_encode input) out;
  Alcotest.(check bool) (Printf.sprintf "snapshot faster: %Ld < %Ld" c2 c1) true (c2 < c1)

let test_workload_nt_faster () =
  let w = Wasp.Runtime.create () in
  let input = Vjs.Workload.make_input ~size:300 in
  let td = b64_isolate ~snapshot:true ~teardown:true w ~key:"kt" in
  let nt = b64_isolate ~snapshot:true ~teardown:false w ~key:"knt" in
  (* warm both snapshot keys *)
  ignore (virtine_run td input);
  ignore (virtine_run nt input);
  let _, with_td = virtine_run td input in
  let _, no_td = virtine_run nt input in
  Alcotest.(check bool)
    (Printf.sprintf "NT faster: %Ld < %Ld" no_td with_td)
    true (no_td < with_td)

let test_workload_js_error_is_a_result () =
  (* a throwing function comes back as an error result, and its shell is
     cleaned back into the pool for the next invocation *)
  let w = Wasp.Runtime.create ~clean:`Async () in
  let iso =
    Vjs.Isolate.create ~teardown:true w ~key:"throws" ~source:"function f(d) { throw d.length; }"
      ~entry:"f"
  in
  let input = Vjs.Workload.make_input ~size:3 in
  (match Vjs.Workload.run_virtine iso ~input with
  | Error _, _ -> ()
  | Ok out, _ -> Alcotest.failf "expected a JS error, got %S" out);
  ignore (Vjs.Workload.run_virtine iso ~input);
  let p = Wasp.Runtime.pool_stats w in
  Alcotest.(check bool) "second invocation reused the cleaned shell" true (p.Wasp.Pool.reused >= 1)

(* Exact cycles of the first three invocations of Figure 14's four arms
   (as the figure runs them: 512 bytes, seeds 0x141-0x144) and of
   Figure 15's Vespid b64 function (256 bytes). The bench gate compares
   the printed cells exactly, but Figure 14 prints whole microseconds:
   it would not notice Figure 14 paying Vespid's 2-cycle-per-byte
   decode charge (~0.1%); these would. *)
let pinned_fig14_cycles =
  [
    ("Virtine", false, true, 0x141, [ 1340981L; 1336569L; 1341134L ]);
    ("Virtine+Snapshot", true, true, 0x142, [ 1347171L; 908841L; 909735L ]);
    ("Virtine NT", false, false, 0x143, [ 1055794L; 782942L; 783297L ]);
    ("Virtine+Snapshot+NT", true, false, 0x144, [ 1084047L; 334155L; 334092L ]);
  ]

let pinned_vespid_b64_cycles = [ 926274L; 195373L; 195329L ]

let test_virtine_cycles_pinned () =
  let input = Vjs.Workload.make_input ~size:512 in
  List.iter
    (fun (name, snapshot, teardown, seed, pinned) ->
      let w = Wasp.Runtime.create ~seed ~pool:(not teardown) ~clean:`Async () in
      let iso = b64_isolate ~snapshot ~teardown w ~key:("fig14:" ^ name) in
      Alcotest.(check (list int64)) name pinned (List.init 3 (fun _ -> snd (virtine_run iso input))))
    pinned_fig14_cycles;
  let v = Serverless.Vespid.create (Wasp.Runtime.create ~seed:0xF1615 ~clean:`Async ()) in
  Serverless.Vespid.register v ~name:"b64" ~source:Vjs.Workload.base64_js_source ~entry:"encode";
  let input = Vjs.Workload.make_input ~size:256 in
  Alcotest.(check (list int64)) "Vespid b64" pinned_vespid_b64_cycles
    (List.init 3 (fun _ -> snd (Serverless.Vespid.invoke_timed v ~name:"b64" ~input)))

let test_workload_baseline_latency_ballpark () =
  (* the paper's baseline is 419 us; ours should be the same order *)
  let clock = Cycles.Clock.create () in
  let input = Vjs.Workload.make_input ~size:1024 in
  let out = Vjs.Workload.run_baseline ~clock ~input in
  let us = Cycles.Clock.to_us clock out.latency_cycles in
  Alcotest.(check bool) (Printf.sprintf "baseline %.0f us in [150, 1200]" us) true
    (us > 150.0 && us < 1200.0)

let () =
  Alcotest.run "vjs"
    [
      ( "language",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "variables" `Quick test_variables;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "bitwise" `Quick test_bitwise;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "closures" `Quick test_closures;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "objects" `Quick test_objects;
          Alcotest.test_case "array higher-order" `Quick test_array_higher_order;
          Alcotest.test_case "JSON" `Quick test_json;
          Alcotest.test_case "try/catch/finally" `Quick test_try_catch;
          Alcotest.test_case "uncaught throw" `Quick test_uncaught_throw_is_error;
          Alcotest.test_case "math builtins" `Quick test_math_builtins;
          Alcotest.test_case "truthiness" `Quick test_truthiness;
        ] );
      ( "engine",
        [
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "native bindings" `Quick test_native_bindings;
          Alcotest.test_case "print/console" `Quick test_print_console;
          Alcotest.test_case "cost charging" `Quick test_engine_charges;
          Alcotest.test_case "stray break/continue" `Quick test_stray_break_continue;
          Alcotest.test_case "program shared by engines" `Quick test_program_shared_by_engines;
        ] );
      ( "differential",
        [
          Alcotest.test_case "engine snippets" `Quick test_engine_snippets;
          Alcotest.test_case "workload sources" `Quick test_workload_sources;
          Alcotest.test_case "step budget sweep" `Quick test_step_budget_sweep;
          Alcotest.test_case "V8 rates" `Quick test_v8_rates;
          Alcotest.test_case "hook calls per boundary" `Quick test_hook_calls_per_boundary;
          Alcotest.test_case "length bound" `Quick test_length_bound;
          QCheck_alcotest.to_alcotest prop_lexer;
          QCheck_alcotest.to_alcotest prop_random_programs;
        ] );
      ( "workload",
        [
          Alcotest.test_case "baseline correct" `Quick test_workload_baseline_correct;
          Alcotest.test_case "baseline sizes" `Quick test_workload_baseline_sizes;
          Alcotest.test_case "virtine correct" `Quick test_workload_virtine_correct;
          Alcotest.test_case "snapshot faster" `Quick test_workload_snapshot_correct_and_faster;
          Alcotest.test_case "no-teardown faster" `Quick test_workload_nt_faster;
          Alcotest.test_case "JS error is a result" `Quick test_workload_js_error_is_a_result;
          Alcotest.test_case "virtine cycles pinned" `Quick test_virtine_cycles_pinned;
          Alcotest.test_case "baseline latency ballpark" `Quick
            test_workload_baseline_latency_ballpark;
        ] );
    ]
