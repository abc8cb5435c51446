(* VM-exit flight recorder: a fixed-size ring of the most recent VM
   exits, stamped with the virtual clock and the core that took them.
   Recording charges no cycles (the real-hardware analogue is a per-cpu
   lock-free ring, as in IRIS-style hypervisor record/replay), so it can
   stay on permanently; on a guest fault or policy violation the last-N
   events are rendered as a "black box" report. *)

type kind = Exit of Vm.Cpu.exit_reason | Ept of { page : int } | Injected of string

(* A hypervisor annotation, or the function that formats it when the
   ring is read: most exits are overwritten unread, so most notes are
   never formatted. *)
type note = Text of string | Deferred of (unit -> string)

type entry = {
  seq : int;            (** monotonically increasing exit number *)
  at : int64;           (** virtual-clock cycle stamp *)
  core : int;
  pc : int;             (** guest pc at the exit *)
  kind : kind;
  trace : int64 option; (** active trace id, when request tracing is on *)
  mutable notes : note list;  (** hypervisor annotations, newest first *)
}

type t = {
  capacity : int;
  ring : entry option array;
  mutable next : int;   (** ring slot for the next record *)
  mutable total : int;  (** exits ever recorded *)
}

let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be >= 1";
  { capacity; ring = Array.make capacity None; next = 0; total = 0 }

let count t = min t.total t.capacity

let record t ?trace ~at ~core ~pc kind =
  let e = { seq = t.total; at; core; pc; kind; trace; notes = [] } in
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let append t note =
  match t.ring.((t.next + t.capacity - 1) mod t.capacity) with
  | Some e -> e.notes <- note :: e.notes
  | None -> ()

let append_note t note = append t (Text note)
let append_deferred t f = append t (Deferred f)

let note_text = function Text s -> s | Deferred f -> f ()

(* Oldest first, joined by "; " (an empty first note adds nothing). *)
let note e =
  List.fold_right
    (fun n acc ->
      let s = note_text n in
      if acc = "" then s else acc ^ "; " ^ s)
    e.notes ""

(* Oldest-first list of retained entries. *)
let entries t =
  let n = count t in
  let first = (t.next - n + t.capacity * 2) mod t.capacity in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

(* An exit is kept as the vCPU reported it and rendered only here. *)
let kind_to_string = function
  | Exit Halt -> "hlt"
  | Exit (Io_out { port; value }) -> Printf.sprintf "io_out port=0x%x value=%Ld" port value
  | Exit (Io_in { port; _ }) -> Printf.sprintf "io_in port=0x%x" port
  | Exit (Fault _ as e) -> "FAULT " ^ Format.asprintf "%a" Vm.Cpu.pp_exit e
  | Exit Out_of_fuel -> "out_of_fuel"
  | Ept { page } -> Printf.sprintf "ept_violation page=%d" page
  | Injected site -> Printf.sprintf "INJECTED %s" site

let pp_entry ppf e =
  Format.fprintf ppf "#%-6d cyc=%-12Ld core=%d pc=0x%06x %s%s%s" e.seq e.at e.core e.pc
    (kind_to_string e.kind)
    (match e.trace with
    | Some id -> Printf.sprintf " trace=%016Lx" id
    | None -> "")
    (match note e with "" -> "" | n -> "  ; " ^ n)

let dump t ~reason =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "=== flight recorder: %s ===\n%d VM exits recorded, last %d retained:\n"
       reason t.total (count t));
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "  %a\n" pp_entry e))
    (entries t);
  Buffer.add_string buf "=== end flight recorder ===\n";
  Buffer.contents buf
