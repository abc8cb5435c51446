(* Tests for the vcc compiler: lexer, parser, sema, call-graph cut, and
   end-to-end execution of compiled code both natively and in virtines. *)

module R = Wasp.Runtime
module Ast = Vcc.Ast
module Lexer = Vcc.Lexer
module Parser = Vcc.Parser

let compile = Vcc.Compile.compile

(* run a function natively (bare CPU) and return its value *)
let native ?(args = []) src fname =
  let c = compile src in
  Vcc.Compile.invoke_native ~clock:(Cycles.Clock.create ()) c fname args ()

(* run a virtine-annotated function under Wasp *)
let virtine ?(args = []) ?w src fname =
  let w = match w with Some w -> w | None -> R.create () in
  let c = compile src in
  Vcc.Compile.invoke w c fname args ()

let check_i64 = Alcotest.(check int64)

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lex_tokens () =
  let toks = List.map fst (Lexer.tokenize "int x = 0x1F + 'a'; // comment") in
  Alcotest.(check bool) "shape" true
    (toks
    = [
        Lexer.KW_INT;
        Lexer.IDENT "x";
        Lexer.ASSIGN;
        Lexer.INT_LIT 31L;
        Lexer.PLUS;
        Lexer.CHAR_LIT 'a';
        Lexer.SEMI;
        Lexer.EOF;
      ])

let test_lex_virtine_keywords () =
  let toks = List.map fst (Lexer.tokenize "virtine virtine_permissive virtine_config") in
  Alcotest.(check bool) "keywords" true
    (toks = [ Lexer.KW_VIRTINE; Lexer.KW_VIRTINE_PERMISSIVE; Lexer.KW_VIRTINE_CONFIG; Lexer.EOF ])

let test_lex_block_comment () =
  let toks = List.map fst (Lexer.tokenize "a /* long\ncomment */ b") in
  Alcotest.(check int) "two idents" 3 (List.length toks)

let test_lex_string_escapes () =
  match List.map fst (Lexer.tokenize {|"a\n\t\"b"|}) with
  | [ Lexer.STR_LIT s; Lexer.EOF ] -> Alcotest.(check string) "escapes" "a\n\t\"b" s
  | _ -> Alcotest.fail "expected string literal"

let test_lex_error_position () =
  match Lexer.tokenize "int x;\n  @" with
  | exception Lexer.Lex_error { loc; _ } ->
      Alcotest.(check int) "line" 2 loc.Ast.line;
      Alcotest.(check int) "col" 3 loc.Ast.col
  | _ -> Alcotest.fail "expected lex error"

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_function_shapes () =
  let p = Parser.parse "int f(int a, char *b) { return a; } void g() { }" in
  Alcotest.(check int) "two functions" 2 (List.length p.Ast.funcs);
  let f = List.hd p.Ast.funcs in
  Alcotest.(check int) "two params" 2 (List.length f.Ast.params);
  Alcotest.(check bool) "not virtine" true (f.Ast.annot = Ast.Not_virtine)

let test_parse_annotations () =
  let p =
    Parser.parse
      "virtine int a() { return 0; } virtine_permissive int b() { return 0; } \
       virtine_config(0x6) int c() { return 0; }"
  in
  let annots = List.map (fun (f : Ast.func) -> f.Ast.annot) p.Ast.funcs in
  Alcotest.(check bool) "annotations" true
    (annots = [ Ast.Virtine; Ast.Virtine_permissive; Ast.Virtine_config 6L ])

let test_parse_globals () =
  let p =
    Parser.parse
      "int counter = 42; char msg[8] = \"hi\"; int table[3] = {1, 2, 3}; int bss;"
  in
  Alcotest.(check int) "four globals" 4 (List.length p.Ast.globals)

let test_parse_precedence () =
  (* 1 + 2 * 3 == 7 must parse multiplication tighter *)
  let e = Parser.parse_expr_string "1 + 2 * 3 == 7" in
  match e.Ast.desc with
  | Ast.Binary (Ast.Eq, { desc = Ast.Binary (Ast.Add, _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_error_message () =
  match Parser.parse "int f( { }" with
  | exception Parser.Parse_error { msg; _ } ->
      Alcotest.(check bool) "mentions expectation" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected parse error"

let test_parse_dangling_else () =
  ignore (Parser.parse "int f(int x) { if (x) if (x) return 1; else return 2; return 3; }")

(* ------------------------------------------------------------------ *)
(* Sema                                                                 *)
(* ------------------------------------------------------------------ *)

let expect_compile_error src =
  match compile src with
  | exception Vcc.Compile.Compile_error _ -> ()
  | _ -> Alcotest.failf "expected compile error for %s" src

let test_sema_unknown_variable () = expect_compile_error "int f() { return y; }"

let test_sema_unknown_function () = expect_compile_error "int f() { return g(); }"

let test_sema_arity () = expect_compile_error "int g(int a) { return a; } int f() { return g(); }"

let test_sema_lvalue () = expect_compile_error "int f() { 3 = 4; return 0; }"

let test_sema_break_outside_loop () = expect_compile_error "int f() { break; return 0; }"

let test_sema_duplicate_function () =
  expect_compile_error "int f() { return 0; } int f() { return 1; }"

let test_sema_duplicate_local () = expect_compile_error "int f() { int x; int x; return 0; }"

let test_sema_virtine_pointer_param () =
  expect_compile_error "virtine int f(char *p) { return 0; }"

let test_sema_deref_int () = expect_compile_error "int f(int x) { return *x; }"

let test_sema_shadowing_builtin () = expect_compile_error "int strlen(int x) { return x; }"

let test_sema_scopes_allow_shadowing () =
  (* a block-scoped redeclaration is legal *)
  let v = native "int f() { int x = 1; { int x = 2; } return x; }" "f" in
  check_i64 "outer x" 1L v

(* ------------------------------------------------------------------ *)
(* Call graph                                                           *)
(* ------------------------------------------------------------------ *)

let cg_src =
  {|
int g_used = 5;
int g_unused = 9;
int helper(int x) { return x + g_used; }
int unrelated() { return g_unused; }
virtine int root(int x) { return helper(x); }
|}

let test_callgraph_reachable () =
  let prog = Parser.parse cg_src in
  let r = Vcc.Callgraph.from prog ~root:"root" in
  Alcotest.(check (list string)) "funcs" [ "root"; "helper" ] r.Vcc.Callgraph.funcs;
  Alcotest.(check (list string)) "globals" [ "g_used" ] r.Vcc.Callgraph.globals

let test_callgraph_builtins () =
  let prog = Parser.parse "virtine int f() { char buf[8]; return strlen(buf); }" in
  let r = Vcc.Callgraph.from prog ~root:"f" in
  Alcotest.(check (list string)) "builtins" [ "strlen" ] r.Vcc.Callgraph.builtins

let test_callgraph_recursive () =
  let prog = Parser.parse "virtine int f(int n) { return n < 2 ? n : f(n-1) + f(n-2); }" in
  let r = Vcc.Callgraph.from prog ~root:"f" in
  Alcotest.(check (list string)) "self only" [ "f" ] r.Vcc.Callgraph.funcs

let test_virtine_roots () =
  let prog = Parser.parse cg_src in
  let roots = Vcc.Callgraph.virtine_roots prog in
  Alcotest.(check int) "one root" 1 (List.length roots)

(* ------------------------------------------------------------------ *)
(* End-to-end: native execution semantics                               *)
(* ------------------------------------------------------------------ *)

let test_exec_return_constant () = check_i64 "42" 42L (native "int f() { return 42; }" "f")

let test_exec_arith () =
  check_i64 "expr" 17L (native "int f() { return (2 + 3) * 4 - 6 / 2; }" "f")

let test_exec_params () =
  check_i64 "a-b" 7L (native ~args:[ 10L; 3L ] "int f(int a, int b) { return a - b; }" "f")

let test_exec_six_params () =
  check_i64 "sum" 21L
    (native
       ~args:[ 1L; 2L; 3L; 4L; 5L; 6L ]
       "int f(int a, int b, int c, int d, int e, int g) { return a+b+c+d+e+g; }" "f")

let test_exec_locals_and_assign () =
  check_i64 "locals" 30L
    (native "int f() { int x = 10; int y; y = x * 2; x = x + y; return x; }" "f")

let test_exec_compound_assign () =
  check_i64 "compound" 14L (native "int f() { int x = 3; x += 4; x *= 2; return x; }" "f")

let test_exec_increment () =
  check_i64 "postincrement value" 6L
    (native "int f() { int x = 4; int y = x++; return x + (y == 4); }" "f");
  check_i64 "preincrement" 10L (native "int f() { int x = 4; return ++x * 2; }" "f")

let test_exec_if_else () =
  let src = "int f(int x) { if (x > 10) return 1; else if (x > 5) return 2; return 3; }" in
  check_i64 "big" 1L (native ~args:[ 11L ] src "f");
  check_i64 "mid" 2L (native ~args:[ 7L ] src "f");
  check_i64 "small" 3L (native ~args:[ 1L ] src "f")

let test_exec_while () =
  check_i64 "sum 1..100" 5050L
    (native "int f() { int s = 0; int i = 1; while (i <= 100) { s += i; i++; } return s; }"
       "f")

let test_exec_for_break_continue () =
  (* sum of odd numbers below 10, stopping at 7 *)
  check_i64 "for/break/continue" 16L
    (native
       {|int f() {
           int s = 0;
           for (int i = 0; i < 100; i++) {
             if (i == 8) break;
             if (i % 2 == 0) continue;
             s += i;
           }
           return s;
         }|}
       "f")

let test_exec_recursion_fib () =
  check_i64 "fib(15)" 610L
    (native ~args:[ 15L ]
       "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }" "fib")

let test_exec_mutual_recursion () =
  (* no prototypes needed: name resolution is whole-unit *)
  check_i64 "is_even(10)" 1L
    (native ~args:[ 10L ]
       {|int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
         int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }|}
       "is_even")

let test_exec_forward_decl_unsupported_gracefully () =
  check_i64 "helper" 12L
    (native ~args:[ 4L ] "int h(int x) { return x * 2; } int f(int x) { return h(x) + x; }"
       "f")

let test_exec_arrays () =
  check_i64 "array sum" 60L
    (native
       {|int f() {
           int a[4];
           a[0] = 10; a[1] = 20; a[2] = 30;
           a[3] = a[0] + a[1];
           return a[1] + a[2] + (a[3] - a[0] - a[1]) + 10;
         }|}
       "f")

let test_exec_char_arrays () =
  check_i64 "char ops" (Int64.of_int (Char.code 'h'))
    (native
       {|int f() {
           char buf[16];
           strcpy(buf, "hello");
           return buf[0];
         }|}
       "f")

let test_exec_pointers () =
  check_i64 "pointer write" 99L
    (native "int f() { int x = 1; int *p = &x; *p = 99; return x; }" "f")

let test_exec_pointer_arithmetic () =
  check_i64 "scaled" 30L
    (native
       {|int f() {
           int a[3];
           a[0] = 10; a[1] = 20; a[2] = 30;
           int *p = a;
           p = p + 2;
           return *p;
         }|}
       "f")

let test_exec_char_pointer_iteration () =
  check_i64 "strlen by hand" 5L
    (native
       {|int f() {
           char *s = "hello";
           int n = 0;
           while (*s) { n++; s = s + 1; }
           return n;
         }|}
       "f")

let test_exec_globals () =
  check_i64 "global rmw" 15L
    (native "int g = 5; int f() { g = g + 10; return g; }" "f")

let test_exec_global_array () =
  check_i64 "table lookup" 13L
    (native ~args:[ 2L ] "int t[4] = {11, 12, 13, 14}; int f(int i) { return t[i]; }" "f")

let test_exec_global_string () =
  check_i64 "global string" (Int64.of_int (Char.code 'v'))
    (native "char name[8] = \"virtine\"; int f() { return name[0]; }" "f")

let test_exec_ternary () =
  check_i64 "ternary" 7L (native ~args:[ 1L ] "int f(int x) { return x ? 7 : 9; }" "f")

let test_exec_logical_short_circuit () =
  (* g() would trap via division by zero if evaluated *)
  check_i64 "and shortcircuit" 0L
    (native "int g() { return 1 / 0; } int f() { return 0 && g(); }" "f");
  check_i64 "or shortcircuit" 1L
    (native "int g() { return 1 / 0; } int f() { return 1 || g(); }" "f")

let test_exec_shifts_and_masks () =
  check_i64 "bit ops" 0xF0L
    (native "int f() { return ((0xFF << 4) >> 4) & 0xF0 | (0 ^ 0); }" "f")

let test_exec_negative_numbers () =
  check_i64 "negatives" (-6L) (native "int f() { int x = -2; return x * 3; }" "f")

let test_exec_libc_memset_memcpy () =
  check_i64 "memset+memcpy" 7L
    (native
       {|int f() {
           char a[8];
           char b[8];
           memset(a, 7, 8);
           memcpy(b, a, 8);
           return b[5];
         }|}
       "f")

let test_exec_libc_strcmp () =
  check_i64 "strcmp equal" 0L (native "int f() { return strcmp(\"abc\", \"abc\"); }" "f");
  let v = native "int f() { return strcmp(\"abd\", \"abc\"); }" "f" in
  Alcotest.(check bool) "strcmp order" true (v > 0L)

let test_exec_malloc () =
  check_i64 "malloc" 55L
    (native
       {|int f() {
           int *p = (int*) malloc(16);
           int *q = (int*) malloc(16);
           p[0] = 22; q[0] = 33;
           return p[0] + q[0];
         }|}
       "f")

let test_exec_new_libc_routines () =
  check_i64 "atoi" 1234L (native {|int f() { return atoi("1234"); }|} "f");
  check_i64 "atoi negative" (-56L) (native {|int f() { return atoi("-56"); }|} "f");
  check_i64 "atoi stops at non-digit" 42L (native {|int f() { return atoi("42abc"); }|} "f");
  check_i64 "atoi itoa roundtrip" (-9876L)
    (native {|int f() { char buf[24]; itoa(-9876, buf); return atoi(buf); }|} "f");
  check_i64 "memcmp equal" 0L
    (native {|int f() { return memcmp("abc", "abc", 3); }|} "f");
  (let v = native {|int f() { return memcmp("abd", "abc", 3); }|} "f" in
   Alcotest.(check bool) "memcmp order" true (v > 0L));
  check_i64 "strncmp bounded" 0L
    (native {|int f() { return strncmp("abcdef", "abcxyz", 3); }|} "f");
  (let v = native {|int f() { return strncmp("abcdef", "abcxyz", 4); }|} "f" in
   Alcotest.(check bool) "strncmp differs at 4" true (v < 0L));
  check_i64 "abs negative" 7L (native "int f() { return abs(0 - 7); }" "f");
  check_i64 "abs positive" 7L (native "int f() { return abs(7); }" "f")

let test_exec_do_while () =
  check_i64 "runs at least once" 1L
    (native "int f() { int n = 0; do { n = n + 1; } while (0); return n; }" "f");
  check_i64 "loops" 10L
    (native "int f() { int n = 0; do { n = n + 1; } while (n < 10); return n; }" "f");
  check_i64 "break in do-while" 3L
    (native
       "int f() { int n = 0; do { n = n + 1; if (n == 3) break; } while (1); return n; }" "f");
  check_i64 "continue re-tests condition" 4L
    (native
       {|int f() {
           int n = 0;
           int guard = 0;
           do {
             guard = guard + 1;
             if (guard > 100) break;
             continue;
           } while (++n < 4);
           return n;
         }|}
       "f")

let test_exec_sizeof () =
  check_i64 "sizeof int" 8L (native "int f() { return sizeof(int); }" "f");
  check_i64 "sizeof char" 1L (native "int f() { return sizeof(char); }" "f");
  check_i64 "sizeof pointer" 8L (native "int f() { return sizeof(char*); }" "f");
  check_i64 "sizeof array" 32L (native "int f() { return sizeof(int[4]); }" "f");
  check_i64 "sizeof in arithmetic" 24L
    (native "int f() { return sizeof(int) * 3; }" "f")

let test_exec_itoa () =
  check_i64 "itoa length" 4L
    (native
       {|int f() {
           char buf[16];
           int n = itoa(-123, buf);
           if (buf[0] != '-') return 100;
           if (buf[1] != '1') return 101;
           if (buf[3] != '3') return 102;
           return n;
         }|}
       "f")

(* ------------------------------------------------------------------ *)
(* Minimal images (selective libc linking)                              *)
(* ------------------------------------------------------------------ *)

let image_symbols src fname =
  let c = compile src in
  match Vcc.Compile.find_virtine c fname with
  | Some vi -> List.map fst vi.Vcc.Compile.asm.Asm.symbols
  | None -> Alcotest.fail "no virtine"

let test_minimal_image_excludes_unused_libc () =
  (* §2: "a virtine image contains only the software that a function
     needs" -- fib uses no libc, so no __vl_ routine is linked *)
  let syms =
    image_symbols "virtine int fib(int n) { if (n < 2) return n; return fib(n-1)+fib(n-2); }"
      "fib"
  in
  Alcotest.(check bool) "no library routines" true
    (not (List.exists (fun s -> String.length s > 5 && String.sub s 0 5 = "__vl_") syms))

let test_minimal_image_links_dependencies () =
  (* puts depends on strlen; both must be present, nothing else *)
  let syms = image_symbols {|virtine int f() { puts("hi"); return 0; }|} "f" in
  let has name = List.mem name syms in
  Alcotest.(check bool) "puts linked" true (has "__vl_puts");
  Alcotest.(check bool) "strlen pulled in" true (has "__vl_strlen");
  Alcotest.(check bool) "memcpy not linked" false (has "__vl_memcpy");
  Alcotest.(check bool) "itoa not linked" false (has "__vl_itoa")

let test_minimal_image_smaller () =
  let size src fname =
    let c = compile src in
    match Vcc.Compile.find_virtine c fname with
    | Some vi -> Wasp.Image.size vi.Vcc.Compile.image
    | None -> Alcotest.fail "no virtine"
  in
  let bare = size "virtine int f(int x) { return x; }" "f" in
  let with_libc =
    size
      {|virtine int f(int x) {
          char buf[32];
          itoa(x, buf);
          char dst[32];
          strcpy(dst, buf);
          memset(buf, 0, 32);
          return strlen(dst);
        }|}
      "f"
  in
  Alcotest.(check bool)
    (Printf.sprintf "bare %dB < libc-using %dB" bare with_libc)
    true (bare < with_libc)

(* ------------------------------------------------------------------ *)
(* End-to-end: virtine execution                                        *)
(* ------------------------------------------------------------------ *)

let fib_src = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"

let test_virtine_fib () =
  let r = virtine ~args:[ 10L ] fib_src "fib" in
  check_i64 "fib(10) in virtine" 55L r.R.return_value

let test_virtine_matches_native () =
  let c = compile fib_src in
  let w = R.create () in
  let clock = Cycles.Clock.create () in
  for n = 0 to 12 do
    let nat = Vcc.Compile.invoke_native ~clock c "fib" [ Int64.of_int n ] () in
    let vr = Vcc.Compile.invoke w c "fib" [ Int64.of_int n ] () in
    check_i64 (Printf.sprintf "fib(%d)" n) nat vr.R.return_value
  done

let test_virtine_snapshot_speedup () =
  let c = compile fib_src in
  let w = R.create () in
  let r1 = Vcc.Compile.invoke w c "fib" [ 1L ] () in
  let r2 = Vcc.Compile.invoke w c "fib" [ 1L ] () in
  Alcotest.(check bool) "second from snapshot" true r2.R.from_snapshot;
  Alcotest.(check bool)
    (Printf.sprintf "snapshot faster: %Ld < %Ld" r2.R.cycles r1.R.cycles)
    true (r2.R.cycles < r1.R.cycles)

let test_virtine_no_snapshot_compile () =
  let c = compile ~snapshot:false fib_src in
  let w = R.create () in
  let r1 = Vcc.Compile.invoke w c "fib" [ 1L ] () in
  let r2 = Vcc.Compile.invoke w c "fib" [ 1L ] () in
  Alcotest.(check bool) "never snapshots" true
    ((not r1.R.from_snapshot) && not r2.R.from_snapshot)

let test_virtine_global_copies_are_distinct () =
  (* §5.3: "Concurrent modifications will occur on distinct copies of the
     variable": each invocation sees the pristine global. *)
  let src = "int g = 100; virtine int bump() { g = g + 1; return g; }" in
  let c = compile src in
  let w = R.create () in
  let r1 = Vcc.Compile.invoke w c "bump" [] () in
  let r2 = Vcc.Compile.invoke w c "bump" [] () in
  check_i64 "first sees 101" 101L r1.R.return_value;
  check_i64 "second also sees 101" 101L r2.R.return_value

(* Two programs under vcc's default unit name share the snapshot key
   [unit:f]: on one runtime each must run its own code, not restore the
   other's snapshot. *)
let test_virtine_snapshot_follows_code () =
  List.iter
    (fun reset ->
      let w = R.create ~reset () in
      let plus = compile "virtine int f(int x) { return x + 1; }" in
      let times = compile "virtine int f(int x) { return x * 100; }" in
      let run c = Vcc.Compile.invoke w c "f" [ 5L ] () in
      check_i64 "x + 1" 6L (run plus).R.return_value;
      let r = run times in
      check_i64 "x * 100 after x + 1" 500L r.R.return_value;
      Alcotest.(check bool) "booted" false r.R.from_snapshot;
      let r = run times in
      check_i64 "x * 100, warm" 500L r.R.return_value;
      Alcotest.(check bool) "restored its own snapshot" true r.R.from_snapshot;
      check_i64 "x + 1 again" 6L (run plus).R.return_value;
      (* a second compile of the same source has equal code *)
      let r = run (compile "virtine int f(int x) { return x + 1; }") in
      check_i64 "x + 1, recompiled" 6L r.R.return_value;
      Alcotest.(check bool) "restores the equal code's snapshot" true r.R.from_snapshot)
    [ `Memcpy; `Cow ]

let test_virtine_default_deny_io () =
  (* a virtine-annotated function trying to open a host file is refused *)
  let src =
    {|virtine int spy() {
        int fd = open("/etc/passwd");
        return fd;
      }|}
  in
  let w = R.create () in
  Wasp.Hostenv.add_file (R.env w) ~path:"/etc/passwd" "root:x:0:0";
  let r = virtine ~w src "spy" in
  check_i64 "denied" Wasp.Hc.err_denied r.R.return_value

let test_virtine_permissive_io () =
  let src =
    {|virtine_permissive int peek() {
        int fd = open("/data/file");
        if (fd < 0) return -100;
        char buf[8];
        int n = read(fd, buf, 4);
        close(fd);
        return buf[0] + n;
      }|}
  in
  let w = R.create () in
  Wasp.Hostenv.add_file (R.env w) ~path:"/data/file" "ABCD";
  let r = virtine ~w src "peek" in
  check_i64 "read through hypercalls" (Int64.of_int (Char.code 'A' + 4)) r.R.return_value

let test_virtine_config_mask () =
  (* allow only stat; open must be denied *)
  let mask = Wasp.Policy.mask_of_list [ Wasp.Hc.stat ] in
  let src =
    Printf.sprintf
      {|virtine_config(%Ld) int probe() {
          int size = stat("/data/file");
          int fd = open("/data/file");
          return size * 1000 + (fd == -1);
        }|}
      mask
  in
  let w = R.create () in
  Wasp.Hostenv.add_file (R.env w) ~path:"/data/file" "12345";
  let r = virtine ~w src "probe" in
  check_i64 "stat ok, open denied" 5001L r.R.return_value

let test_virtine_nested_annotation_no_nest () =
  (* a virtine calling another virtine-annotated function: no nested
     virtine is created; it is a plain call in the same image (§5.3) *)
  let src =
    {|virtine int inner(int x) { return x * 2; }
      virtine int outer(int x) { return inner(x) + 1; }|}
  in
  let w = R.create () in
  let c = compile src in
  let r = Vcc.Compile.invoke w c "outer" [ 5L ] () in
  check_i64 "plain call" 11L r.R.return_value;
  (* only one VM was used for the outer invocation *)
  Alcotest.(check int) "one shell created" 1 (R.pool_stats w).Wasp.Pool.created

let test_virtine_isolation_fault_contained () =
  let src = {|virtine int wild() { int *p = (int*) 40000000; return *p; }|} in
  let r = virtine src "wild" in
  match r.R.outcome with
  | R.Faulted _ -> ()
  | _ -> Alcotest.fail "expected contained fault"

let test_virtine_real_mode () =
  let c = compile ~mode:Vm.Modes.Real fib_src in
  let w = R.create () in
  let r = Vcc.Compile.invoke w c "fib" [ 12L ] () in
  check_i64 "fib(12) in real mode" 144L r.R.return_value

let test_virtine_protected_mode () =
  let c = compile ~mode:Vm.Modes.Protected fib_src in
  let w = R.create () in
  let r = Vcc.Compile.invoke w c "fib" [ 12L ] () in
  check_i64 "fib(12) in protected mode" 144L r.R.return_value

let test_virtine_mode_boot_cost_ordering () =
  (* Figure 3: cheaper modes boot faster (no snapshot, pool off to expose
     the boot path each time) *)
  let cost mode =
    let c = compile ~snapshot:false ~mode fib_src in
    let w = R.create ~pool:false () in
    let r = Vcc.Compile.invoke w c "fib" [ 5L ] () in
    r.R.cycles
  in
  let real = cost Vm.Modes.Real in
  let prot = cost Vm.Modes.Protected in
  let long = cost Vm.Modes.Long in
  Alcotest.(check bool)
    (Printf.sprintf "real %Ld < protected %Ld" real prot)
    true (real < prot);
  Alcotest.(check bool)
    (Printf.sprintf "protected %Ld < long %Ld" prot long)
    true (prot < long)

let test_invoke_non_virtine_raises () =
  let c = compile "int f() { return 1; }" in
  let w = R.create () in
  match Vcc.Compile.invoke w c "f" [] () with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"


let test_exec_fuel_spans_resumes () =
  (* every write() exits to the host and resumes: the budget must cover
     the whole call, not restart at each resume *)
  let c = compile {|int spin() { while (1) { write(1, "x", 1); } return 0; }|} in
  match Vcc.Compile.invoke_native ~clock:(Cycles.Clock.create ()) c "spin" [] ~fuel:10_000 () with
  | exception Vcc.Compile.Compile_error msg ->
      Alcotest.(check bool) ("out of fuel: " ^ msg) true
        (String.ends_with ~suffix:"ran out of fuel" msg)
  | v -> Alcotest.failf "spin returned %Ld" v

let test_exec_native_calls_leave_nothing () =
  (* a [compiled] keeps each native function's memory and blocks between
     calls: every call must still start from a fresh process, after a
     fault or a fuel-out too *)
  let src =
    {|int g;
      int f(int x) { g = g + x; return g; }
      int m() { return (int) malloc(16); }
      int d(int x) { return 10 / x; }
      int spin() { while (1) { g = g + 1; } return 0; }|}
  in
  let call c fname args =
    let clock = Cycles.Clock.create () in
    let v = Vcc.Compile.invoke_native ~clock c fname args () in
    (v, Cycles.Clock.now clock)
  in
  let same = Alcotest.(check (pair int64 int64)) in
  let c = compile src in
  let f1 = call c "f" [ 5L ] and m1 = call c "m" [] in
  check_i64 "f adds to a zero global" 5L (fst f1);
  for i = 2 to 4 do
    same (Printf.sprintf "f, call %d" i) f1 (call c "f" [ 5L ]);
    same (Printf.sprintf "m, call %d" i) m1 (call c "m" [])
  done;
  let fails what run =
    match run () with
    | exception Vcc.Compile.Compile_error _ -> ()
    | v -> Alcotest.failf "%s returned %Ld" what v
  in
  let clock = Cycles.Clock.create () in
  fails "d(0)" (fun () -> Vcc.Compile.invoke_native ~clock c "d" [ 0L ] ());
  fails "spin" (fun () -> Vcc.Compile.invoke_native ~clock c "spin" [] ~fuel:10_000 ());
  let fresh = compile src in
  let d = call fresh "d" [ 2L ] in
  check_i64 "d(2)" 5L (fst d);
  same "d after a fault and a fuel-out" d (call c "d" [ 2L ]);
  same "f after them" (call fresh "f" [ 5L ]) (call c "f" [ 5L ])

let () =
  Alcotest.run "vcc"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lex_tokens;
          Alcotest.test_case "virtine keywords" `Quick test_lex_virtine_keywords;
          Alcotest.test_case "block comments" `Quick test_lex_block_comment;
          Alcotest.test_case "string escapes" `Quick test_lex_string_escapes;
          Alcotest.test_case "error position" `Quick test_lex_error_position;
        ] );
      ( "parser",
        [
          Alcotest.test_case "function shapes" `Quick test_parse_function_shapes;
          Alcotest.test_case "annotations" `Quick test_parse_annotations;
          Alcotest.test_case "globals" `Quick test_parse_globals;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "error message" `Quick test_parse_error_message;
          Alcotest.test_case "dangling else" `Quick test_parse_dangling_else;
        ] );
      ( "sema",
        [
          Alcotest.test_case "unknown variable" `Quick test_sema_unknown_variable;
          Alcotest.test_case "unknown function" `Quick test_sema_unknown_function;
          Alcotest.test_case "arity" `Quick test_sema_arity;
          Alcotest.test_case "lvalue" `Quick test_sema_lvalue;
          Alcotest.test_case "break outside loop" `Quick test_sema_break_outside_loop;
          Alcotest.test_case "duplicate function" `Quick test_sema_duplicate_function;
          Alcotest.test_case "duplicate local" `Quick test_sema_duplicate_local;
          Alcotest.test_case "virtine pointer param" `Quick test_sema_virtine_pointer_param;
          Alcotest.test_case "deref int" `Quick test_sema_deref_int;
          Alcotest.test_case "builtin shadowing" `Quick test_sema_shadowing_builtin;
          Alcotest.test_case "block shadowing ok" `Quick test_sema_scopes_allow_shadowing;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "reachable cut" `Quick test_callgraph_reachable;
          Alcotest.test_case "builtins" `Quick test_callgraph_builtins;
          Alcotest.test_case "recursion" `Quick test_callgraph_recursive;
          Alcotest.test_case "virtine roots" `Quick test_virtine_roots;
        ] );
      ( "exec-native",
        [
          Alcotest.test_case "return constant" `Quick test_exec_return_constant;
          Alcotest.test_case "arithmetic" `Quick test_exec_arith;
          Alcotest.test_case "params" `Quick test_exec_params;
          Alcotest.test_case "six params" `Quick test_exec_six_params;
          Alcotest.test_case "locals/assign" `Quick test_exec_locals_and_assign;
          Alcotest.test_case "compound assign" `Quick test_exec_compound_assign;
          Alcotest.test_case "increment" `Quick test_exec_increment;
          Alcotest.test_case "if/else" `Quick test_exec_if_else;
          Alcotest.test_case "while" `Quick test_exec_while;
          Alcotest.test_case "for/break/continue" `Quick test_exec_for_break_continue;
          Alcotest.test_case "recursion (fib)" `Quick test_exec_recursion_fib;
          Alcotest.test_case "mutual recursion" `Quick test_exec_mutual_recursion;
          Alcotest.test_case "two functions" `Quick test_exec_forward_decl_unsupported_gracefully;
          Alcotest.test_case "arrays" `Quick test_exec_arrays;
          Alcotest.test_case "char arrays" `Quick test_exec_char_arrays;
          Alcotest.test_case "pointers" `Quick test_exec_pointers;
          Alcotest.test_case "pointer arithmetic" `Quick test_exec_pointer_arithmetic;
          Alcotest.test_case "char pointer iteration" `Quick test_exec_char_pointer_iteration;
          Alcotest.test_case "globals" `Quick test_exec_globals;
          Alcotest.test_case "global arrays" `Quick test_exec_global_array;
          Alcotest.test_case "global strings" `Quick test_exec_global_string;
          Alcotest.test_case "ternary" `Quick test_exec_ternary;
          Alcotest.test_case "short circuit" `Quick test_exec_logical_short_circuit;
          Alcotest.test_case "shifts and masks" `Quick test_exec_shifts_and_masks;
          Alcotest.test_case "negative numbers" `Quick test_exec_negative_numbers;
          Alcotest.test_case "memset/memcpy" `Quick test_exec_libc_memset_memcpy;
          Alcotest.test_case "strcmp" `Quick test_exec_libc_strcmp;
          Alcotest.test_case "malloc" `Quick test_exec_malloc;
          Alcotest.test_case "new libc routines" `Quick test_exec_new_libc_routines;
          Alcotest.test_case "do-while" `Quick test_exec_do_while;
          Alcotest.test_case "sizeof" `Quick test_exec_sizeof;
          Alcotest.test_case "itoa" `Quick test_exec_itoa;
          Alcotest.test_case "fuel spans resumes" `Quick test_exec_fuel_spans_resumes;
          Alcotest.test_case "native calls leave nothing behind" `Quick
            test_exec_native_calls_leave_nothing;
        ] );
      ( "minimal-images",
        [
          Alcotest.test_case "no unused libc" `Quick test_minimal_image_excludes_unused_libc;
          Alcotest.test_case "dependency closure" `Quick test_minimal_image_links_dependencies;
          Alcotest.test_case "smaller images" `Quick test_minimal_image_smaller;
        ] );
      ( "exec-virtine",
        [
          Alcotest.test_case "fib" `Quick test_virtine_fib;
          Alcotest.test_case "matches native" `Quick test_virtine_matches_native;
          Alcotest.test_case "snapshot speedup" `Quick test_virtine_snapshot_speedup;
          Alcotest.test_case "snapshot opt-out" `Quick test_virtine_no_snapshot_compile;
          Alcotest.test_case "global copy semantics" `Quick test_virtine_global_copies_are_distinct;
          Alcotest.test_case "snapshot follows code" `Quick test_virtine_snapshot_follows_code;
          Alcotest.test_case "default deny io" `Quick test_virtine_default_deny_io;
          Alcotest.test_case "permissive io" `Quick test_virtine_permissive_io;
          Alcotest.test_case "config mask" `Quick test_virtine_config_mask;
          Alcotest.test_case "no nested virtines" `Quick test_virtine_nested_annotation_no_nest;
          Alcotest.test_case "fault contained" `Quick test_virtine_isolation_fault_contained;
          Alcotest.test_case "real mode" `Quick test_virtine_real_mode;
          Alcotest.test_case "protected mode" `Quick test_virtine_protected_mode;
          Alcotest.test_case "mode cost ordering" `Quick test_virtine_mode_boot_cost_ordering;
          Alcotest.test_case "non-virtine invoke" `Quick test_invoke_non_virtine_raises;
        ] );
    ]
