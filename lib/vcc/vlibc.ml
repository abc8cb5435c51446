type builtin = Hypercall of int | Inline_rdtsc | Library

type signature = { params : Ast.ty list; ret : Ast.ty; kind : builtin }

let charp = Ast.Tptr Ast.Tchar
let int_ = Ast.Tint

let table : (string * signature) list =
  [
    (* hypercall-backed syscalls *)
    ("read", { params = [ int_; charp; int_ ]; ret = int_; kind = Hypercall Wasp.Hc.read });
    ("write", { params = [ int_; charp; int_ ]; ret = int_; kind = Hypercall Wasp.Hc.write });
    ("open", { params = [ charp ]; ret = int_; kind = Hypercall Wasp.Hc.open_ });
    ("close", { params = [ int_ ]; ret = int_; kind = Hypercall Wasp.Hc.close });
    ("stat", { params = [ charp ]; ret = int_; kind = Hypercall Wasp.Hc.stat });
    ("send", { params = [ int_; charp; int_ ]; ret = int_; kind = Hypercall Wasp.Hc.send });
    ("recv", { params = [ int_; charp; int_ ]; ret = int_; kind = Hypercall Wasp.Hc.recv });
    ("get_data", { params = [ charp; int_ ]; ret = int_; kind = Hypercall Wasp.Hc.get_data });
    ( "return_data",
      { params = [ charp; int_ ]; ret = int_; kind = Hypercall Wasp.Hc.return_data } );
    ("exit", { params = [ int_ ]; ret = Ast.Tvoid; kind = Hypercall Wasp.Hc.exit_ });
    ("snapshot", { params = []; ret = int_; kind = Hypercall Wasp.Hc.snapshot });
    ("brk", { params = [ int_ ]; ret = int_; kind = Hypercall Wasp.Hc.brk });
    ("hc_clock", { params = []; ret = int_; kind = Hypercall Wasp.Hc.clock });
    ("getrandom", { params = []; ret = int_; kind = Hypercall Wasp.Hc.getrandom });
    (* the hypercall ring (docs/hypercalls.md): queue with ring_push /
       ring_flag / ring_link, kick once with ring_enter, read CQE
       results with ring_result *)
    ("ring_enter", { params = []; ret = int_; kind = Hypercall Wasp.Hc.ring_enter });
    ("ring_push", { params = [ int_; int_; int_; int_ ]; ret = int_; kind = Library });
    ("ring_flag", { params = [ int_; int_ ]; ret = int_; kind = Library });
    ("ring_link", { params = [ int_; int_; int_ ]; ret = int_; kind = Library });
    ("ring_result", { params = [ int_ ]; ret = int_; kind = Library });
    (* inline *)
    ("rdtsc", { params = []; ret = int_; kind = Inline_rdtsc });
    (* library routines *)
    ("malloc", { params = [ int_ ]; ret = charp; kind = Library });
    ("memcpy", { params = [ charp; charp; int_ ]; ret = charp; kind = Library });
    ("memset", { params = [ charp; int_; int_ ]; ret = charp; kind = Library });
    ("strlen", { params = [ charp ]; ret = int_; kind = Library });
    ("strcmp", { params = [ charp; charp ]; ret = int_; kind = Library });
    ("strcpy", { params = [ charp; charp ]; ret = charp; kind = Library });
    ("puts", { params = [ charp ]; ret = int_; kind = Library });
    ("itoa", { params = [ int_; charp ]; ret = int_; kind = Library });
    ("atoi", { params = [ charp ]; ret = int_; kind = Library });
    ("memcmp", { params = [ charp; charp; int_ ]; ret = int_; kind = Library });
    ("strncmp", { params = [ charp; charp; int_ ]; ret = int_; kind = Library });
    ("abs", { params = [ int_ ]; ret = int_; kind = Library });
  ]

let lookup name = List.assoc_opt name table

let is_builtin name = lookup name <> None

let entry_label = "__entry"
let post_init_label = "__start_main"
let heap_ptr_label = "__heap_ptr"
let heap_start_label = "__heap_start"

(* The library is written directly against the symbolic assembler. The
   calling convention matches compiled code: arguments in r0..r5, result
   in r0, r11/r12 scratch. Each routine is its own item chunk so the
   image linker can include only what the call graph needs. *)
let malloc_items : Asm.item list =
  let open Asm in
  [
    (* char* malloc(int n): bump allocator over __heap_ptr *)
    Label "__vl_malloc";
    Insn (SBin (Instr.Add, 0, OImm 7L));
    Insn (SBin (Instr.And, 0, OImm (-8L)));
    Insn (SMov (11, OLbl heap_ptr_label));
    Insn (SLoad (Instr.W64, 12, 11, 0));
    Insn (SBin (Instr.Add, 0, OReg 12));
    Insn (SStore (Instr.W64, 11, 0, OReg 0));
    Insn (SMov (0, OReg 12));
    Insn SRet;
  ]

let memcpy_items : Asm.item list =
  let open Asm in
  [
    (* char* memcpy(char* dst, char* src, int n) *)
    Label "__vl_memcpy";
    Insn (SMov (11, OReg 0));
    Label "__vl_memcpy_loop";
    Insn (SCmp (2, OImm 0L));
    Insn (SJcc (Instr.Le, Lbl "__vl_memcpy_done"));
    Insn (SLoad (Instr.W8, 12, 1, 0));
    Insn (SStore (Instr.W8, 0, 0, OReg 12));
    Insn (SBin (Instr.Add, 0, OImm 1L));
    Insn (SBin (Instr.Add, 1, OImm 1L));
    Insn (SBin (Instr.Sub, 2, OImm 1L));
    Insn (SJmp (Lbl "__vl_memcpy_loop"));
    Label "__vl_memcpy_done";
    Insn (SMov (0, OReg 11));
    Insn SRet;
  ]

let memset_items : Asm.item list =
  let open Asm in
  [
    (* char* memset(char* dst, int c, int n) *)
    Label "__vl_memset";
    Insn (SMov (11, OReg 0));
    Label "__vl_memset_loop";
    Insn (SCmp (2, OImm 0L));
    Insn (SJcc (Instr.Le, Lbl "__vl_memset_done"));
    Insn (SStore (Instr.W8, 0, 0, OReg 1));
    Insn (SBin (Instr.Add, 0, OImm 1L));
    Insn (SBin (Instr.Sub, 2, OImm 1L));
    Insn (SJmp (Lbl "__vl_memset_loop"));
    Label "__vl_memset_done";
    Insn (SMov (0, OReg 11));
    Insn SRet;
  ]

let strlen_items : Asm.item list =
  let open Asm in
  [
    (* int strlen(char* s) *)
    Label "__vl_strlen";
    Insn (SMov (11, OImm 0L));
    Label "__vl_strlen_loop";
    Insn (SLoad (Instr.W8, 12, 0, 0));
    Insn (SCmp (12, OImm 0L));
    Insn (SJcc (Instr.Eq, Lbl "__vl_strlen_done"));
    Insn (SBin (Instr.Add, 0, OImm 1L));
    Insn (SBin (Instr.Add, 11, OImm 1L));
    Insn (SJmp (Lbl "__vl_strlen_loop"));
    Label "__vl_strlen_done";
    Insn (SMov (0, OReg 11));
    Insn SRet;
  ]

let strcmp_items : Asm.item list =
  let open Asm in
  [
    (* int strcmp(char* a, char* b) *)
    Label "__vl_strcmp";
    Label "__vl_strcmp_loop";
    Insn (SLoad (Instr.W8, 11, 0, 0));
    Insn (SLoad (Instr.W8, 12, 1, 0));
    Insn (SCmp (11, OReg 12));
    Insn (SJcc (Instr.Ne, Lbl "__vl_strcmp_diff"));
    Insn (SCmp (11, OImm 0L));
    Insn (SJcc (Instr.Eq, Lbl "__vl_strcmp_eq"));
    Insn (SBin (Instr.Add, 0, OImm 1L));
    Insn (SBin (Instr.Add, 1, OImm 1L));
    Insn (SJmp (Lbl "__vl_strcmp_loop"));
    Label "__vl_strcmp_diff";
    Insn (SMov (0, OReg 11));
    Insn (SBin (Instr.Sub, 0, OReg 12));
    Insn SRet;
    Label "__vl_strcmp_eq";
    Insn (SMov (0, OImm 0L));
    Insn SRet;
  ]

let strcpy_items : Asm.item list =
  let open Asm in
  [
    (* char* strcpy(char* dst, char* src) *)
    Label "__vl_strcpy";
    Insn (SMov (11, OReg 0));
    Label "__vl_strcpy_loop";
    Insn (SLoad (Instr.W8, 12, 1, 0));
    Insn (SStore (Instr.W8, 0, 0, OReg 12));
    Insn (SCmp (12, OImm 0L));
    Insn (SJcc (Instr.Eq, Lbl "__vl_strcpy_done"));
    Insn (SBin (Instr.Add, 0, OImm 1L));
    Insn (SBin (Instr.Add, 1, OImm 1L));
    Insn (SJmp (Lbl "__vl_strcpy_loop"));
    Label "__vl_strcpy_done";
    Insn (SMov (0, OReg 11));
    Insn SRet;
  ]

let puts_items : Asm.item list =
  let open Asm in
  [
    (* int puts(char* s): write(1, s, strlen(s)) *)
    Label "__vl_puts";
    Insn (SPush (OReg 0));
    Insn (SCall (Lbl "__vl_strlen"));
    Insn (SMov (3, OReg 0));
    Insn (SPop 2);
    Insn (SMov (1, OImm 1L));
    Insn (SMov (0, OImm (Int64.of_int Wasp.Hc.write)));
    Insn (SOut (Wasp.Hc.port, OReg 0));
    Insn SRet;
  ]

let itoa_items : Asm.item list =
  let open Asm in
  [
    (* int itoa(int n, char* buf): decimal, returns length; handles 0 and
       negatives. Digits are built in reverse then swapped in place. *)
    Label "__vl_itoa";
    Insn (SMov (11, OReg 1));     (* write cursor *)
    Insn (SCmp (0, OImm 0L));
    Insn (SJcc (Instr.Ge, Lbl "__vl_itoa_pos"));
    Insn (SStore (Instr.W8, 11, 0, OImm 45L)); (* '-' *)
    Insn (SBin (Instr.Add, 11, OImm 1L));
    Insn (SNeg 0);
    Label "__vl_itoa_pos";
    Insn (SMov (12, OReg 11));    (* first digit position *)
    Label "__vl_itoa_loop";
    Insn (SMov (2, OReg 0));
    Insn (SBin (Instr.Rem, 2, OImm 10L));
    Insn (SBin (Instr.Add, 2, OImm 48L));
    Insn (SStore (Instr.W8, 11, 0, OReg 2));
    Insn (SBin (Instr.Add, 11, OImm 1L));
    Insn (SBin (Instr.Div, 0, OImm 10L));
    Insn (SCmp (0, OImm 0L));
    Insn (SJcc (Instr.Gt, Lbl "__vl_itoa_loop"));
    (* reverse digits between r12 and r11-1 *)
    Insn (SMov (2, OReg 11));
    Insn (SBin (Instr.Sub, 2, OImm 1L));
    Label "__vl_itoa_rev";
    Insn (SCmp (12, OReg 2));
    Insn (SJcc (Instr.Ge, Lbl "__vl_itoa_done"));
    Insn (SLoad (Instr.W8, 3, 12, 0));
    Insn (SLoad (Instr.W8, 4, 2, 0));
    Insn (SStore (Instr.W8, 12, 0, OReg 4));
    Insn (SStore (Instr.W8, 2, 0, OReg 3));
    Insn (SBin (Instr.Add, 12, OImm 1L));
    Insn (SBin (Instr.Sub, 2, OImm 1L));
    Insn (SJmp (Lbl "__vl_itoa_rev"));
    Label "__vl_itoa_done";
    Insn (SStore (Instr.W8, 11, 0, OImm 0L)); (* NUL *)
    Insn (SMov (0, OReg 11));
    Insn (SBin (Instr.Sub, 0, OReg 1));
    Insn SRet;
  ]

let atoi_items : Asm.item list =
  let open Asm in
  [
    (* int atoi(char* s): optional leading '-', decimal digits *)
    Label "__vl_atoi";
    Insn (SMov (11, OImm 0L));            (* accumulator *)
    Insn (SMov (12, OImm 0L));            (* negative flag *)
    Insn (SLoad (Instr.W8, 2, 0, 0));
    Insn (SCmp (2, OImm 45L));            (* '-' *)
    Insn (SJcc (Instr.Ne, Lbl "__vl_atoi_loop"));
    Insn (SMov (12, OImm 1L));
    Insn (SBin (Instr.Add, 0, OImm 1L));
    Label "__vl_atoi_loop";
    Insn (SLoad (Instr.W8, 2, 0, 0));
    Insn (SCmp (2, OImm 48L));
    Insn (SJcc (Instr.Lt, Lbl "__vl_atoi_done"));
    Insn (SCmp (2, OImm 57L));
    Insn (SJcc (Instr.Gt, Lbl "__vl_atoi_done"));
    Insn (SBin (Instr.Mul, 11, OImm 10L));
    Insn (SBin (Instr.Sub, 2, OImm 48L));
    Insn (SBin (Instr.Add, 11, OReg 2));
    Insn (SBin (Instr.Add, 0, OImm 1L));
    Insn (SJmp (Lbl "__vl_atoi_loop"));
    Label "__vl_atoi_done";
    Insn (SCmp (12, OImm 0L));
    Insn (SJcc (Instr.Eq, Lbl "__vl_atoi_pos"));
    Insn (SNeg 11);
    Label "__vl_atoi_pos";
    Insn (SMov (0, OReg 11));
    Insn SRet;
  ]

let memcmp_items : Asm.item list =
  let open Asm in
  [
    (* int memcmp(char* a, char* b, int n) *)
    Label "__vl_memcmp";
    Label "__vl_memcmp_loop";
    Insn (SCmp (2, OImm 0L));
    Insn (SJcc (Instr.Le, Lbl "__vl_memcmp_eq"));
    Insn (SLoad (Instr.W8, 11, 0, 0));
    Insn (SLoad (Instr.W8, 12, 1, 0));
    Insn (SCmp (11, OReg 12));
    Insn (SJcc (Instr.Ne, Lbl "__vl_memcmp_diff"));
    Insn (SBin (Instr.Add, 0, OImm 1L));
    Insn (SBin (Instr.Add, 1, OImm 1L));
    Insn (SBin (Instr.Sub, 2, OImm 1L));
    Insn (SJmp (Lbl "__vl_memcmp_loop"));
    Label "__vl_memcmp_diff";
    Insn (SMov (0, OReg 11));
    Insn (SBin (Instr.Sub, 0, OReg 12));
    Insn SRet;
    Label "__vl_memcmp_eq";
    Insn (SMov (0, OImm 0L));
    Insn SRet;
  ]

let strncmp_items : Asm.item list =
  let open Asm in
  [
    (* int strncmp(char* a, char* b, int n) *)
    Label "__vl_strncmp";
    Label "__vl_strncmp_loop";
    Insn (SCmp (2, OImm 0L));
    Insn (SJcc (Instr.Le, Lbl "__vl_strncmp_eq"));
    Insn (SLoad (Instr.W8, 11, 0, 0));
    Insn (SLoad (Instr.W8, 12, 1, 0));
    Insn (SCmp (11, OReg 12));
    Insn (SJcc (Instr.Ne, Lbl "__vl_strncmp_diff"));
    Insn (SCmp (11, OImm 0L));
    Insn (SJcc (Instr.Eq, Lbl "__vl_strncmp_eq"));
    Insn (SBin (Instr.Add, 0, OImm 1L));
    Insn (SBin (Instr.Add, 1, OImm 1L));
    Insn (SBin (Instr.Sub, 2, OImm 1L));
    Insn (SJmp (Lbl "__vl_strncmp_loop"));
    Label "__vl_strncmp_diff";
    Insn (SMov (0, OReg 11));
    Insn (SBin (Instr.Sub, 0, OReg 12));
    Insn SRet;
    Label "__vl_strncmp_eq";
    Insn (SMov (0, OImm 0L));
    Insn SRet;
  ]

let abs_items : Asm.item list =
  let open Asm in
  [
    Label "__vl_abs";
    Insn (SCmp (0, OImm 0L));
    Insn (SJcc (Instr.Ge, Lbl "__vl_abs_done"));
    Insn (SNeg 0);
    Label "__vl_abs_done";
    Insn SRet;
  ]

(* Hypercall-ring shim. Slot addressing is open-coded against the fixed
   Wasp.Layout carve-out: addr = array_base + (index & (entries-1)) *
   entry_size. The cursors are monotonic u64 indices, so the masks only
   pick the storage slot. *)
let ring_mask = Int64.of_int (Wasp.Layout.ring_entries - 1)
let ring_sqes = Int64.of_int Wasp.Layout.ring_sqes
let ring_cqes = Int64.of_int Wasp.Layout.ring_cqes
let ring_sq_tail = Int64.of_int Wasp.Layout.ring_sq_tail

let ring_push_items : Asm.item list =
  let open Asm in
  [
    (* int ring_push(int nr, int a0, int a1, int a2): append one SQE at
       sq_tail (flags/args3..4/link zeroed), bump the tail, return the
       op's ring index for ring_flag/ring_link/ring_result. *)
    Label "__vl_ring_push";
    Insn (SMov (12, OImm ring_sq_tail));
    Insn (SLoad (Instr.W64, 11, 12, 0));     (* r11 = tail index *)
    Insn (SMov (12, OReg 11));
    Insn (SBin (Instr.And, 12, OImm ring_mask));
    Insn (SBin (Instr.Mul, 12, OImm (Int64.of_int Wasp.Layout.ring_sqe_size)));
    Insn (SBin (Instr.Add, 12, OImm ring_sqes));  (* r12 = SQE slot addr *)
    Insn (SStore (Instr.W64, 12, 0, OReg 0));     (* nr *)
    Insn (SStore (Instr.W64, 12, 8, OImm 0L));    (* flags *)
    Insn (SStore (Instr.W64, 12, 16, OReg 1));    (* arg0 *)
    Insn (SStore (Instr.W64, 12, 24, OReg 2));    (* arg1 *)
    Insn (SStore (Instr.W64, 12, 32, OReg 3));    (* arg2 *)
    Insn (SStore (Instr.W64, 12, 40, OImm 0L));   (* arg3 *)
    Insn (SStore (Instr.W64, 12, 48, OImm 0L));   (* arg4 *)
    Insn (SStore (Instr.W64, 12, 56, OImm 0L));   (* link *)
    Insn (SMov (2, OReg 11));
    Insn (SBin (Instr.Add, 2, OImm 1L));
    Insn (SMov (12, OImm ring_sq_tail));
    Insn (SStore (Instr.W64, 12, 0, OReg 2));     (* tail <- tail + 1 *)
    Insn (SMov (0, OReg 11));
    Insn SRet;
  ]

let ring_flag_items : Asm.item list =
  let open Asm in
  [
    (* int ring_flag(int idx, int flags): OR flags into SQE[idx].flags;
       returns idx (still in r0). *)
    Label "__vl_ring_flag";
    Insn (SMov (12, OReg 0));
    Insn (SBin (Instr.And, 12, OImm ring_mask));
    Insn (SBin (Instr.Mul, 12, OImm (Int64.of_int Wasp.Layout.ring_sqe_size)));
    Insn (SBin (Instr.Add, 12, OImm ring_sqes));
    Insn (SLoad (Instr.W64, 11, 12, 8));
    Insn (SBin (Instr.Or, 11, OReg 1));
    Insn (SStore (Instr.W64, 12, 8, OReg 11));
    Insn SRet;
  ]

let ring_link_items : Asm.item list =
  let open Asm in
  [
    (* int ring_link(int idx, int src, int pos): make SQE[idx] take
       SQE[src]'s result in argument slot pos — link = (pos << 8) |
       (idx - src), plus the link flag. Returns idx. *)
    Label "__vl_ring_link";
    Insn (SMov (11, OReg 0));
    Insn (SBin (Instr.Sub, 11, OReg 1));          (* r11 = delta *)
    Insn (SMov (12, OReg 2));
    Insn (SBin (Instr.Mul, 12, OImm 256L));
    Insn (SBin (Instr.Add, 12, OReg 11));         (* r12 = link value *)
    Insn (SMov (2, OReg 12));
    Insn (SMov (12, OReg 0));
    Insn (SBin (Instr.And, 12, OImm ring_mask));
    Insn (SBin (Instr.Mul, 12, OImm (Int64.of_int Wasp.Layout.ring_sqe_size)));
    Insn (SBin (Instr.Add, 12, OImm ring_sqes));
    Insn (SStore (Instr.W64, 12, 56, OReg 2));    (* link *)
    Insn (SLoad (Instr.W64, 11, 12, 8));
    Insn (SBin (Instr.Or, 11, OImm 2L));          (* flags |= RING_LINK *)
    Insn (SStore (Instr.W64, 12, 8, OReg 11));
    Insn SRet;
  ]

let ring_result_items : Asm.item list =
  let open Asm in
  [
    (* int ring_result(int idx): CQE[idx].result after ring_enter. *)
    Label "__vl_ring_result";
    Insn (SMov (12, OReg 0));
    Insn (SBin (Instr.And, 12, OImm ring_mask));
    Insn (SBin (Instr.Mul, 12, OImm (Int64.of_int Wasp.Layout.ring_cqe_size)));
    Insn (SBin (Instr.Add, 12, OImm ring_cqes));
    Insn (SLoad (Instr.W64, 0, 12, 0));
    Insn SRet;
  ]

(* the heap break cell: the crt0 always initializes it *)
let heap_items : Asm.item list = [ Asm.Label heap_ptr_label; Asm.Quad [ 0L ] ]

let routines =
  [
    ("malloc", malloc_items);
    ("memcpy", memcpy_items);
    ("memset", memset_items);
    ("strlen", strlen_items);
    ("strcmp", strcmp_items);
    ("strcpy", strcpy_items);
    ("puts", puts_items);
    ("itoa", itoa_items);
    ("atoi", atoi_items);
    ("memcmp", memcmp_items);
    ("strncmp", strncmp_items);
    ("abs", abs_items);
    ("ring_push", ring_push_items);
    ("ring_flag", ring_flag_items);
    ("ring_link", ring_link_items);
    ("ring_result", ring_result_items);
  ]

(* internal dependencies between routines *)
let routine_deps = function "puts" -> [ "strlen" ] | _ -> []

let items_for requested =
  let wanted = Hashtbl.create 8 in
  let rec add name =
    if List.mem_assoc name routines && not (Hashtbl.mem wanted name) then begin
      Hashtbl.replace wanted name ();
      List.iter add (routine_deps name)
    end
  in
  List.iter add requested;
  List.concat_map
    (fun (name, items) -> if Hashtbl.mem wanted name then items else [])
    routines
  @ heap_items

(* crt0: initialize the heap and walk the newlib init path (impure data,
   stdio tables); this is exactly the work a snapshot skips. *)
let init_items ~snapshot : Asm.item list =
  let open Asm in
  [
    Label entry_label;
    (* heap break <- __heap_start *)
    Insn (SMov (11, OLbl heap_ptr_label));
    Insn (SMov (12, OLbl heap_start_label));
    Insn (SStore (Instr.W64, 11, 0, OReg 12));
    (* newlib-style init: build the impure data area at the heap start
       (real stores, so the snapshot has something to capture). *)
    Insn (SMov (11, OImm 0L));
    Label "__libc_init_loop";
    Insn (SMov (2, OReg 12));
    Insn (SBin (Instr.Add, 2, OReg 11));
    Insn (SStore (Instr.W8, 2, 0, OImm 0L));
    Insn (SBin (Instr.Add, 11, OImm 1L));
    Insn (SCmp (11, OImm 1024L));
    Insn (SJcc (Instr.Lt, Lbl "__libc_init_loop"));
  ]
  @ (if snapshot then
       [
         Insn (SMov (0, OImm (Int64.of_int Wasp.Hc.snapshot)));
         Insn (SOut (Wasp.Hc.port, OReg 0));
       ]
     else [])
  @ [ Label post_init_label ]
