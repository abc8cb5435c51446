(* The JSON is produced by one writer that runs twice over the same
   items: first it only counts bytes, then it fills a [Bytes] of exactly
   that length, which becomes the result without a copy. Every write
   advances [pos] by the same amount in both runs and only the filling
   run stores bytes, so the two runs agree by construction. A 10K-item
   export is ~2 MB: sizing it exactly keeps its one direct major-heap
   block as small as the output, with no growing buffer and no final
   copy. Escaping and number formatting bypass Printf in the common
   cases. *)

type w = { out : bytes; fill : bool; mutable pos : int }

(* Run [emit] to count, then to fill. *)
let render emit =
  let c = { out = Bytes.empty; fill = false; pos = 0 } in
  emit c;
  let w = { out = Bytes.create c.pos; fill = true; pos = 0 } in
  emit w;
  Bytes.unsafe_to_string w.out

let add_string w s =
  if w.fill then Bytes.blit_string s 0 w.out w.pos (String.length s);
  w.pos <- w.pos + String.length s

let add_char w c =
  if w.fill then Bytes.set w.out w.pos c;
  w.pos <- w.pos + 1

let hex_digit n = "0123456789abcdef".[n]

(* A string needs escaping when it holds a byte below 0x20, a quote or
   a backslash. Each run scans every string once more, so the common
   plain case tests eight bytes at a time. With [m] the byte [n <= 0x80]
   repeated eight times, [has_below x m] tells whether a byte of [x] is
   below [n]: subtracting borrows into the top bit of such a byte,
   [lnot x] drops bytes at 0x80 and up, and a borrow out of the lowest
   such byte can only flag bytes above it, so the answer is exact. A
   byte equal to [c] is a zero byte (below 1) of [x] xor [c] repeated. *)
let[@inline] has_below x m =
  Int64.logand (Int64.logand (Int64.sub x m) (Int64.lognot x)) 0x8080808080808080L <> 0L

let[@inline] plain_word x =
  not
    (has_below x 0x2020202020202020L
    || has_below (Int64.logxor x 0x2222222222222222L) 0x0101010101010101L
    || has_below (Int64.logxor x 0x5c5c5c5c5c5c5c5cL) 0x0101010101010101L)

let[@inline] plain_char c = Char.code c >= 0x20 && c <> '"' && c <> '\\'

let rec plain s i n =
  if i + 8 <= n then plain_word (String.get_int64_le s i) && plain s (i + 8) n
  else i >= n || (plain_char (String.unsafe_get s i) && plain s (i + 1) n)

(* [\n] and the like take two bytes, other control characters six
   ([\u001f]) *)
let add_escaped w s =
  if plain s 0 (String.length s) then add_string w s
  else
    String.iter
      (fun c ->
        if plain_char c then add_char w c
        else begin
          add_char w '\\';
          match c with
          | '\n' -> add_char w 'n'
          | '\r' -> add_char w 'r'
          | '\t' -> add_char w 't'
          | '"' | '\\' -> add_char w c
          | c ->
              add_string w "u00";
              add_char w (hex_digit (Char.code c lsr 4));
              add_char w (hex_digit (Char.code c land 15))
        end)
      s

(* Decimal digits of [n >= 0], by comparison with [p = 10^d]: 10^18 is
   the largest power of ten below [max_int]. *)
let rec digits n d p = if d = 19 || n < p then d else digits n (d + 1) (p * 10)

let add_nat w n =
  let d = digits n 1 10 in
  if w.fill then begin
    let n = ref n in
    for i = w.pos + d - 1 downto w.pos do
      Bytes.set w.out i (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    done
  end;
  w.pos <- w.pos + d

let add_int w n = if n < 0 then add_string w (string_of_int n) else add_nat w n

let add_int64 w v =
  let n = Int64.to_int v in
  if Int64.equal (Int64.of_int n) v then add_int w n else add_string w (Int64.to_string v)

(* [y] is [1000x] rounded once, so it is within 2^-52 y of the exact
   product; outside 2^-50 y of a half it rounds to the same integer as
   the exact product, which is what [%.3f] prints. Nearer a tie, and for
   negative, huge or non-finite values, Printf decides. *)
let add_fixed3 w x =
  let y = x *. 1000.0 in
  if Float.sign_bit y || not (y < 0x1p49) then add_string w (Printf.sprintf "%.3f" x)
  else begin
    let n = Float.to_int y in
    let frac = y -. Float.of_int n in
    if Float.abs (frac -. 0.5) <= y *. 0x1p-50 then add_string w (Printf.sprintf "%.3f" x)
    else begin
      let n = if frac > 0.5 then n + 1 else n in
      add_nat w (n / 1000);
      if w.fill then begin
        let m = n mod 1000 in
        Bytes.set w.out w.pos '.';
        Bytes.set w.out (w.pos + 1) (Char.unsafe_chr (48 + (m / 100)));
        Bytes.set w.out (w.pos + 2) (Char.unsafe_chr (48 + (m / 10 mod 10)));
        Bytes.set w.out (w.pos + 3) (Char.unsafe_chr (48 + (m mod 10)))
      end;
      w.pos <- w.pos + 4
    end
  end

let fixed3 x = render (fun w -> add_fixed3 w x)

(* ["k":"v"] pairs, each after a comma when [comma] or when not first *)
let rec add_args w ~comma = function
  | [] -> ()
  | (k, v) :: rest ->
      if comma then add_char w ',';
      add_char w '"';
      add_escaped w k;
      add_string w "\":\"";
      add_escaped w v;
      add_char w '"';
      add_args w ~comma:true rest

(* Each simulated core becomes its own thread track: tid = core + 1
   (Chrome treats tid 0 oddly, so core 0 maps to tid 1). *)
let tid_of_core core = core + 1

(* When tracing is on, a child span that opened on a different core than
   its parent gets a flow start/finish pair so Perfetto draws the causal
   arrow across thread tracks. Flows are keyed by the child's span id,
   which the tracer guarantees unique. *)
let flows items =
  let spans =
    List.filter_map (function Span.Complete s -> Some s | Span.Instant _ -> None) items
  in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match List.assoc_opt "span_id" s.Span.args with
      | Some id -> Hashtbl.replace by_id id s
      | None -> ())
    spans;
  List.filter_map
    (fun s ->
      match
        (List.assoc_opt "parent_id" s.Span.args, List.assoc_opt "span_id" s.Span.args)
      with
      | Some pid, Some sid -> (
          match Hashtbl.find_opt by_id pid with
          | Some p when p.Span.core <> s.Span.core -> Some (p, s, sid)
          | _ -> None)
      | _ -> None)
    spans

let to_json ?(process = "wasp") hub =
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
  (* flows only ever join spans on different cores *)
  let flows = match cores with [ _ ] -> [] | _ -> flows items in
  render @@ fun w ->
  let add s = add_string w s in
  let add_us c = add_fixed3 w (Cycles.Clock.to_us clk c) in
  let add_tid core = add_int w (tid_of_core core) in
  add "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  add "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"";
  add_escaped w process;
  add "\"}}";
  List.iter
    (fun core ->
      add ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      add_tid core;
      add ",\"args\":{\"name\":\"core ";
      add_int w core;
      add "\"}}")
    cores;
  List.iter
    (function
      | Span.Complete s ->
          add ",{\"name\":\"";
          add_escaped w s.Span.name;
          add "\",\"cat\":\"wasp\",\"ph\":\"X\",\"ts\":";
          add_us s.Span.start_cycles;
          add ",\"dur\":";
          add_us s.Span.duration;
          add ",\"pid\":1,\"tid\":";
          add_tid s.Span.core;
          add ",\"args\":{\"cycles\":\"";
          add_int64 w s.Span.duration;
          add_char w '"';
          add_args w ~comma:true s.Span.args;
          add "}}"
      | Span.Instant i ->
          add ",{\"name\":\"";
          add_escaped w i.i_name;
          add "\",\"cat\":\"wasp\",\"ph\":\"i\",\"ts\":";
          add_us i.i_at;
          add ",\"s\":\"t\",\"pid\":1,\"tid\":";
          add_tid i.i_core;
          add ",\"args\":{";
          add_args w ~comma:false i.i_args;
          add "}}")
    items;
  List.iter
    (fun (p, s, sid) ->
      add ",{\"name\":\"trace\",\"cat\":\"wasp.flow\",\"ph\":\"s\",\"id\":\"0x";
      add_escaped w sid;
      add "\",\"ts\":";
      add_us p.Span.start_cycles;
      add ",\"pid\":1,\"tid\":";
      add_tid p.Span.core;
      add "},{\"name\":\"trace\",\"cat\":\"wasp.flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"0x";
      add_escaped w sid;
      add "\",\"ts\":";
      add_us s.Span.start_cycles;
      add ",\"pid\":1,\"tid\":";
      add_tid s.Span.core;
      add "}")
    flows;
  add "]}"
