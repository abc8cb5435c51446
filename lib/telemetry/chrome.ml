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

(* [y] is [1000x] rounded once, so it is within 2^-52 y of the exact
   product; outside 2^-50 y of a half it rounds to the same integer as
   the exact product, which is what [%.3f] prints. Nearer a tie, and for
   negative, huge or non-finite values, Printf decides. *)
let[@inline] add_fixed3 w x =
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

(* 16 lowercase hex digits of [ids.{i}], as [Tracectx.id_to_string]
   writes them *)
let add_id w (ids : Span.ids) i =
  if w.fill then begin
    let v = ids.{i} in
    let hi = Int64.to_int (Int64.shift_right_logical v 32)
    and lo = Int64.to_int v land 0xFFFF_FFFF in
    for i = 0 to 7 do
      let shift = 28 - (4 * i) in
      Bytes.set w.out (w.pos + i) (hex_digit ((hi lsr shift) land 15));
      Bytes.set w.out (w.pos + i + 8) (hex_digit ((lo lsr shift) land 15))
    done
  end;
  w.pos <- w.pos + 16

let add_id_arg w ~comma key ids i =
  if comma then add_char w ',';
  add_string w key;
  add_id w ids i;
  add_char w '"'

(* Each simulated core becomes its own thread track: tid = core + 1
   (Chrome treats tid 0 oddly, so core 0 maps to tid 1). *)
let tid_of_core core = core + 1

let rec mem_int x = function [] -> false | y :: l -> x = y || mem_int x l

(* When tracing is on, a child span that opened on a different core than
   its parent gets a flow start/finish pair so Perfetto draws the causal
   arrow across thread tracks. Flows join the tracer's ids: each closed
   span with a parent, in slot order, paired with the last closed span
   holding that span id. *)
let flows (c : Span.columns) =
  let closed i = c.states.(i) = Span.Closed in
  let by_id = Hashtbl.create 64 in
  for i = 0 to c.used - 1 do
    if closed i && not (Int64.equal c.trace_ids.{i} 0L) then Hashtbl.replace by_id c.span_ids.{i} i
  done;
  let acc = ref [] in
  for i = c.used - 1 downto 0 do
    let parent = c.parent_ids.{i} in
    if closed i && not (Int64.equal parent 0L) then
      match Hashtbl.find_opt by_id parent with
      | Some p when c.cores.(p) <> c.cores.(i) -> acc := (p, i) :: !acc
      | _ -> ()
  done;
  !acc

let to_json hub =
  let freq = Cycles.Clock.freq_ghz (Hub.clock hub) in
  let c = Span.columns (Hub.spans hub) in
  let cores = ref [] in
  for i = 0 to c.used - 1 do
    if c.states.(i) <> Span.Open && not (mem_int c.cores.(i) !cores) then
      cores := c.cores.(i) :: !cores
  done;
  let cores = match List.sort compare !cores with [] -> [ 0 ] | l -> l in
  (* flows only ever join spans on different cores *)
  let flows = match cores with [ _ ] -> [] | _ -> flows c in
  render @@ fun w ->
  let add s = add_string w s in
  (* microseconds of [cyc] cycles, as [Cycles.Clock.to_us] gives them *)
  let add_us cyc = add_fixed3 w (Float.of_int cyc /. freq /. 1e3) in
  let add_tid core = add_int w (tid_of_core core) in
  add "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  add "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"wasp\"}}";
  List.iter
    (fun core ->
      add ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      add_tid core;
      add ",\"args\":{\"name\":\"core ";
      add_int w core;
      add "\"}}")
    cores;
  for i = 0 to c.used - 1 do
    let traced = not (Int64.equal c.trace_ids.{i} 0L) in
    match c.states.(i) with
    | Span.Open -> ()
    | Span.Closed ->
        add ",{\"name\":\"";
        add_escaped w c.names.(i);
        add "\",\"cat\":\"wasp\",\"ph\":\"X\",\"ts\":";
        add_us c.starts.(i);
        add ",\"dur\":";
        add_us c.durations.(i);
        add ",\"pid\":1,\"tid\":";
        add_tid c.cores.(i);
        add ",\"args\":{\"cycles\":\"";
        add_int w c.durations.(i);
        add_char w '"';
        if traced then begin
          add_id_arg w ~comma:true "\"trace_id\":\"" c.trace_ids i;
          add_id_arg w ~comma:true "\"span_id\":\"" c.span_ids i;
          if not (Int64.equal c.parent_ids.{i} 0L) then
            add_id_arg w ~comma:true "\"parent_id\":\"" c.parent_ids i
        end;
        add_args w ~comma:true c.caller_args.(i);
        add "}}"
    | Span.Point ->
        add ",{\"name\":\"";
        add_escaped w c.names.(i);
        add "\",\"cat\":\"wasp\",\"ph\":\"i\",\"ts\":";
        add_us c.starts.(i);
        add ",\"s\":\"t\",\"pid\":1,\"tid\":";
        add_tid c.cores.(i);
        add ",\"args\":{";
        if traced then add_id_arg w ~comma:false "\"trace_id\":\"" c.trace_ids i;
        add_args w ~comma:traced c.caller_args.(i);
        add "}}"
  done;
  List.iter
    (fun (p, i) ->
      add ",{\"name\":\"trace\",\"cat\":\"wasp.flow\",\"ph\":\"s\",\"id\":\"0x";
      add_id w c.span_ids i;
      add "\",\"ts\":";
      add_us c.starts.(p);
      add ",\"pid\":1,\"tid\":";
      add_tid c.cores.(p);
      add "},{\"name\":\"trace\",\"cat\":\"wasp.flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"0x";
      add_id w c.span_ids i;
      add "\",\"ts\":";
      add_us c.starts.(i);
      add ",\"pid\":1,\"tid\":";
      add_tid c.cores.(i);
      add "}")
    flows;
  add "]}"
