(* Deterministic invocation recording: the .vxr format.

   A recording captures everything needed to re-execute one virtine
   invocation bit-for-bit in the simulator: the image bytes (integrity-
   checked by MD5), the runtime RNG seed, the policy, the fuel budget,
   and the full hypercall transcript with virtual-cycle stamps. Because
   the simulator is deterministic, replaying with the same seed must
   reproduce every stamp exactly; [diff] reports any divergence, turning
   an anomalous invocation into a reproducible test case. *)

type event = { at : int64; nr : int; args : int64 array; ret : int64 }

type t = {
  image_name : string;
  mode : string;      (* "real" | "protected" | "long" *)
  origin : int;
  entry : int;
  mem_size : int;
  code : string;      (* raw image bytes *)
  seed : int;
  policy : string;    (* "deny_all" | "allow_all" | "mask:<hex>" *)
  fuel : int;
  fault_plan : string option;
      (* one-line Cycles.Fault_plan form, in the caller's spelling; None = no chaos *)
  mutable events_rev : event list;
  mutable n_events : int;
  mutable total_cycles : int64;
  mutable outcome : string;   (* "exited" | "faulted" | "fuel" | "" *)
  mutable return_value : int64;
}

let create ~name ~mode ~origin ~entry ~mem_size ~code ~seed ~policy ~fuel ?fault_plan () =
  {
    image_name = name;
    mode;
    origin;
    entry;
    mem_size;
    code;
    seed;
    policy;
    fuel;
    fault_plan;
    events_rev = [];
    n_events = 0;
    total_cycles = 0L;
    outcome = "";
    return_value = 0L;
  }

let add_event t ~at ~nr ~args ~ret =
  t.events_rev <- { at; nr; args = Array.copy args; ret } :: t.events_rev;
  t.n_events <- t.n_events + 1

let finish t ~cycles ~outcome ~return_value =
  t.total_cycles <- cycles;
  t.outcome <- outcome;
  t.return_value <- return_value

let events t = List.rev t.events_rev
let event_count t = t.n_events

let image_name t = t.image_name
let mode t = t.mode
let origin t = t.origin
let entry t = t.entry
let mem_size t = t.mem_size
let code t = t.code
let seed t = t.seed
let policy t = t.policy
let fuel t = t.fuel
let fault_plan t = t.fault_plan
let total_cycles t = t.total_cycles
let outcome t = t.outcome

let image_md5 t = Digest.to_hex (Digest.string t.code)

(* The runtime calls this with the image bytes read back through the
   paged memory's logical view after loading, so a recording's MD5 keeps
   guarding the same property — "the guest saw exactly these bytes" —
   independent of how pages are represented underneath. *)
let image_matches t view = String.equal (Digest.to_hex (Digest.bytes view)) (image_md5 t)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let hex_of_string s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let string_of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then invalid_arg "Replay: odd hex string";
  String.init (n / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let magic = "vxr1"

(* Largest guest region a recording may describe (64 MB). Recordings of
   real invocations are tiny; the cap exists so a hostile .vxr cannot
   make a replayer allocate unbounded memory. *)
let max_mem_size = 64 * 1024 * 1024

let to_string t =
  let buf = Buffer.create (1024 + (2 * String.length t.code)) in
  Buffer.add_string buf (magic ^ "\n");
  Buffer.add_string buf (Printf.sprintf "image %s\n" t.image_name);
  Buffer.add_string buf (Printf.sprintf "mode %s\n" t.mode);
  Buffer.add_string buf (Printf.sprintf "origin %d\n" t.origin);
  Buffer.add_string buf (Printf.sprintf "entry %d\n" t.entry);
  Buffer.add_string buf (Printf.sprintf "mem_size %d\n" t.mem_size);
  Buffer.add_string buf (Printf.sprintf "seed %d\n" t.seed);
  Buffer.add_string buf (Printf.sprintf "policy %s\n" t.policy);
  Buffer.add_string buf (Printf.sprintf "fuel %d\n" t.fuel);
  (match t.fault_plan with
  | Some plan -> Buffer.add_string buf (Printf.sprintf "faultplan %s\n" plan)
  | None -> ());
  Buffer.add_string buf (Printf.sprintf "md5 %s\n" (image_md5 t));
  Buffer.add_string buf (Printf.sprintf "code %s\n" (hex_of_string t.code));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "hc %Ld %d %Ld %s\n" e.at e.nr e.ret
           (String.concat " " (Array.to_list (Array.map Int64.to_string e.args)))))
    (events t);
  Buffer.add_string buf (Printf.sprintf "total %Ld\n" t.total_cycles);
  Buffer.add_string buf (Printf.sprintf "outcome %s\n" t.outcome);
  Buffer.add_string buf (Printf.sprintf "ret %Ld\n" t.return_value);
  Buffer.contents buf

(* Every line but [hc] names one field; each must appear exactly once
   ([faultplan] at most once), so no field falls back to a default and
   no later line overrides an earlier one. *)
let required =
  [ "image"; "mode"; "origin"; "entry"; "mem_size"; "seed"; "policy"; "fuel"; "md5"; "code";
    "total"; "outcome"; "ret" ]

let of_string s =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | first :: _ when first = magic -> ()
  | _ -> fail "not a vxr file (missing %s header)" magic);
  let split_kv line =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i ->
        (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  in
  let int_of v ~what =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
        fail "bad %s: %S" what v;
        0
  in
  let int64_of v ~what =
    match Int64.of_string_opt v with
    | Some n -> n
    | None ->
        fail "bad %s: %S" what v;
        0L
  in
  let fields = Hashtbl.create 16 in
  let events_rev = ref [] and n_events = ref 0 in
  List.iteri
    (fun i line ->
      if i > 0 && line <> "" then begin
        let key, v = split_kv line in
        if key = "hc" then (
          match String.split_on_char ' ' v with
          | at :: nr :: ret :: args ->
              events_rev :=
                {
                  at = int64_of at ~what:"hc stamp";
                  nr = int_of nr ~what:"hc nr";
                  args = Array.of_list (List.map (fun a -> int64_of a ~what:"hc arg") args);
                  ret = int64_of ret ~what:"hc ret";
                }
                :: !events_rev;
              incr n_events
          | _ -> fail "bad hc line: %S" v)
        else if not (key = "faultplan" || List.mem key required) then
          fail "unknown field %S" key
        else if Hashtbl.mem fields key then fail "duplicate %s line" key
        else Hashtbl.replace fields key v
      end)
    lines;
  List.iter (fun key -> if not (Hashtbl.mem fields key) then fail "missing %s line" key) required;
  match !err with
  | Some m -> Error m
  | None -> (
      let field = Hashtbl.find fields in
      let int key = int_of (field key) ~what:key and int64 key = int64_of (field key) ~what:key in
      let code =
        try string_of_hex (field "code")
        with Invalid_argument _ | Failure _ ->
          fail "bad code hex";
          ""
      in
      let t =
        create ~name:(field "image") ~mode:(field "mode") ~origin:(int "origin")
          ~entry:(int "entry") ~mem_size:(int "mem_size") ~code ~seed:(int "seed")
          ~policy:(field "policy") ~fuel:(int "fuel")
          ?fault_plan:(Hashtbl.find_opt fields "faultplan") ()
      in
      t.events_rev <- !events_rev;
      t.n_events <- !n_events;
      finish t ~cycles:(int64 "total") ~outcome:(field "outcome") ~return_value:(int64 "ret");
      (* Semantic validation: a recording that parses but describes an
         impossible machine (negative or absurd memory, code that cannot
         fit, a load outside the region) must be a typed error here, not
         a [Vm.Memory.Fault] raised later through whatever driver rebuilt
         the image — fuzz corpora are full of exactly these. *)
      (match !err with
      | Some _ -> ()
      | None ->
          if t.mem_size <= 0 then fail "bad mem_size %d (must be positive)" t.mem_size
          else if t.mem_size > max_mem_size then
            fail "bad mem_size %d (over the %d-byte replay cap)" t.mem_size max_mem_size
          else if t.origin < 0 then fail "bad origin %d (negative)" t.origin
          else if t.entry < 0 then fail "bad entry %d (negative)" t.entry
          else if t.fuel < 0 then fail "bad fuel %d (negative)" t.fuel
          else if t.origin + String.length t.code > t.mem_size then
            fail "code does not fit: origin %d + %d bytes > mem_size %d" t.origin
              (String.length t.code) t.mem_size
          else if t.entry >= t.mem_size then
            fail "entry 0x%x outside the %d-byte region" t.entry t.mem_size
          else if field "md5" <> image_md5 t then
            fail "image corrupt: md5 %s does not match recorded %s" (image_md5 t) (field "md5"));
      match !err with None -> Ok t | Some m -> Error m)

let to_file t path =
  let oc = open_out_bin path in
  output_string oc (to_string t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Divergence detection                                                *)
(* ------------------------------------------------------------------ *)

let max_reported = 10

let diff recorded replayed =
  let divs = ref [] in
  let hidden = ref 0 in
  let add fmt =
    Printf.ksprintf
      (fun m -> if List.length !divs < max_reported then divs := m :: !divs else incr hidden)
      fmt
  in
  (* the header, in file order, each field under its .vxr key *)
  let field key a b = if a <> b then add "%s: %s vs %s" key a b in
  let int_field key a b = if a <> b then add "%s: %d vs %d" key a b in
  field "image" recorded.image_name replayed.image_name;
  field "mode" recorded.mode replayed.mode;
  int_field "origin" recorded.origin replayed.origin;
  int_field "entry" recorded.entry replayed.entry;
  int_field "mem_size" recorded.mem_size replayed.mem_size;
  int_field "seed" recorded.seed replayed.seed;
  field "policy" recorded.policy replayed.policy;
  int_field "fuel" recorded.fuel replayed.fuel;
  field "faultplan"
    (Option.value recorded.fault_plan ~default:"<none>")
    (Option.value replayed.fault_plan ~default:"<none>");
  field "md5" (image_md5 recorded) (image_md5 replayed);
  if recorded.n_events <> replayed.n_events then
    add "hypercall count: %d vs %d" recorded.n_events replayed.n_events;
  (* one walk over both transcripts, up to the shorter *)
  let rec walk i ea eb =
    match (ea, eb) with
    | a :: ea, b :: eb ->
        if a.nr <> b.nr then add "hc[%d]: nr %d vs %d" i a.nr b.nr
        else if Int64.compare a.at b.at <> 0 then
          add "hc[%d] (%d): cycle stamp %Ld vs %Ld" i a.nr a.at b.at
        else if a.args <> b.args then
          add "hc[%d] (%d): args (%s) vs (%s)" i a.nr
            (String.concat "," (Array.to_list (Array.map Int64.to_string a.args)))
            (String.concat "," (Array.to_list (Array.map Int64.to_string b.args)))
        else if Int64.compare a.ret b.ret <> 0 then
          add "hc[%d] (%d): return %Ld vs %Ld" i a.nr a.ret b.ret;
        walk (i + 1) ea eb
    | [], _ | _, [] -> ()
  in
  walk 0 (events recorded) (events replayed);
  if Int64.compare recorded.total_cycles replayed.total_cycles <> 0 then
    add "total cycles: %Ld vs %Ld" recorded.total_cycles replayed.total_cycles;
  field "outcome" recorded.outcome replayed.outcome;
  if Int64.compare recorded.return_value replayed.return_value <> 0 then
    add "return value: %Ld vs %Ld" recorded.return_value replayed.return_value;
  let out = List.rev !divs in
  if !hidden > 0 then out @ [ Printf.sprintf "(%d further divergences suppressed)" !hidden ]
  else out
