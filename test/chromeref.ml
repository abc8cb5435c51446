(* Reference model of the Chrome trace exporter: the Buffer-based
   [Telemetry.Chrome.to_json] as it was before the exporter wrote its
   output at the exact length and straight from the sink's columns. It
   reads the items from [Span.items], grows one buffer sized at 256
   bytes per item and copies it out with [Buffer.contents].
   test_telemetry checks that the library's exporter writes the same
   bytes on random hubs. *)

open Telemetry

let needs_escape s =
  let rec go i =
    i < String.length s
    &&
    let c = String.unsafe_get s i in
    c = '"' || c = '\\' || Char.code c < 0x20 || go (i + 1)
  in
  go 0

let hex_digit n = "0123456789abcdef".[n]

let add_escaped buf s =
  if not (needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf (hex_digit (Char.code c lsr 4));
            Buffer.add_char buf (hex_digit (Char.code c land 15))
        | c -> Buffer.add_char buf c)
      s

let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n = if n < 0 then Buffer.add_string buf (string_of_int n) else add_nat buf n

let add_int64 buf v =
  let n = Int64.to_int v in
  if Int64.equal (Int64.of_int n) v then add_int buf n
  else Buffer.add_string buf (Int64.to_string v)

(* [Printf.sprintf "%.3f" x], with Printf called only near a tie *)
let add_fixed3 buf x =
  let y = x *. 1000.0 in
  let printf () = Buffer.add_string buf (Printf.sprintf "%.3f" x) in
  if Float.sign_bit y || not (y < 0x1p49) then printf ()
  else begin
    let n = Float.to_int y in
    let frac = y -. Float.of_int n in
    if Float.abs (frac -. 0.5) <= y *. 0x1p-50 then printf ()
    else begin
      let n = if frac > 0.5 then n + 1 else n in
      let m = n mod 1000 in
      add_nat buf (n / 1000);
      Buffer.add_char buf '.';
      Buffer.add_char buf (Char.unsafe_chr (48 + (m / 100)));
      Buffer.add_char buf (Char.unsafe_chr (48 + (m / 10 mod 10)));
      Buffer.add_char buf (Char.unsafe_chr (48 + (m mod 10)))
    end
  end

(* ["k":"v"] pairs, each after a comma when [comma] or when not first *)
let rec add_args buf ~comma = function
  | [] -> ()
  | (k, v) :: rest ->
      if comma then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      add_escaped buf k;
      Buffer.add_string buf "\":\"";
      add_escaped buf v;
      Buffer.add_char buf '"';
      add_args buf ~comma:true rest

(* Each simulated core becomes its own thread track: tid = core + 1
   (Chrome treats tid 0 oddly, so core 0 maps to tid 1). *)
let tid_of_core core = core + 1

(* When tracing is on, a child span that opened on a different core than
   its parent gets a flow start/finish pair so Perfetto draws the causal
   arrow across thread tracks. Flows are keyed by the child's span id,
   which the tracer guarantees unique, and join the tracer's ids only:
   a caller's arg that is merely named span_id or parent_id draws none.
   The tracer's ids lead a span's args (trace_id, span_id, then
   parent_id for a child), which is how they are told apart here. That
   is exact for hubs whose callers never put an arg named trace_id
   first nor give a parent_id arg 16 hex digits as its value, as in the
   scripts test_telemetry generates. *)
let tracer_ids args =
  match args with
  | ("trace_id", _) :: ("span_id", sid) :: rest ->
      Some (sid, match rest with ("parent_id", pid) :: _ -> Some pid | _ -> None)
  | _ -> None

let flows items =
  let spans =
    List.filter_map (function Span.Complete s -> Some s | Span.Instant _ -> None) items
  in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match tracer_ids s.Span.args with
      | Some (sid, _) -> Hashtbl.replace by_id sid s
      | None -> ())
    spans;
  List.filter_map
    (fun s ->
      match tracer_ids s.Span.args with
      | Some (sid, Some pid) -> (
          match Hashtbl.find_opt by_id pid with
          | Some p when p.Span.core <> s.Span.core -> Some (p, s, sid)
          | _ -> None)
      | _ -> None)
    spans

let to_json hub =
  let clk = Hub.clock hub in
  let items = Span.items (Hub.spans hub) in
  let cores =
    List.fold_left
      (fun acc item ->
        let c = match item with Span.Complete s -> s.Span.core | Span.Instant i -> i.i_core in
        if List.mem c acc then acc else c :: acc)
      [] items
    |> List.sort compare
  in
  let cores = if cores = [] then [ 0 ] else cores in
  let buf = Buffer.create (256 * (List.length items + List.length cores + 1)) in
  let add = Buffer.add_string buf in
  let add_us c = add_fixed3 buf (Cycles.Clock.to_us clk c) in
  let add_tid core = add_int buf (tid_of_core core) in
  add "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  add "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"wasp\"}}";
  List.iter
    (fun core ->
      add ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      add_tid core;
      add ",\"args\":{\"name\":\"core ";
      add_int buf core;
      add "\"}}")
    cores;
  List.iter
    (function
      | Span.Complete s ->
          add ",{\"name\":\"";
          add_escaped buf s.Span.name;
          add "\",\"cat\":\"wasp\",\"ph\":\"X\",\"ts\":";
          add_us s.Span.start_cycles;
          add ",\"dur\":";
          add_us s.Span.duration;
          add ",\"pid\":1,\"tid\":";
          add_tid s.Span.core;
          add ",\"args\":{\"cycles\":\"";
          add_int64 buf s.Span.duration;
          Buffer.add_char buf '"';
          add_args buf ~comma:true s.Span.args;
          add "}}"
      | Span.Instant i ->
          add ",{\"name\":\"";
          add_escaped buf i.i_name;
          add "\",\"cat\":\"wasp\",\"ph\":\"i\",\"ts\":";
          add_us i.i_at;
          add ",\"s\":\"t\",\"pid\":1,\"tid\":";
          add_tid i.i_core;
          add ",\"args\":{";
          add_args buf ~comma:false i.i_args;
          add "}}")
    items;
  (* flows only ever join spans on different cores *)
  let flows = match cores with [ _ ] -> [] | _ -> flows items in
  List.iter
    (fun (p, s, sid) ->
      add ",{\"name\":\"trace\",\"cat\":\"wasp.flow\",\"ph\":\"s\",\"id\":\"0x";
      add_escaped buf sid;
      add "\",\"ts\":";
      add_us p.Span.start_cycles;
      add ",\"pid\":1,\"tid\":";
      add_tid p.Span.core;
      add "},{\"name\":\"trace\",\"cat\":\"wasp.flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"0x";
      add_escaped buf sid;
      add "\",\"ts\":";
      add_us s.Span.start_cycles;
      add ",\"pid\":1,\"tid\":";
      add_tid s.Span.core;
      add "}")
    flows;
  add "]}";
  Buffer.contents buf
