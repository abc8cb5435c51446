type span = {
  name : string;
  start_cycles : int64;
  duration : int64;
  depth : int;
  seq : int;
  core : int;
  args : (string * string) list;
}

type item =
  | Complete of span
  | Instant of {
      i_name : string;
      i_at : int64;
      i_depth : int;
      i_seq : int;
      i_core : int;
      i_args : (string * string) list;
    }

type state = Open | Closed | Point

type ids = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type columns = {
  mutable used : int;
  mutable states : state array;
  mutable names : string array;
  mutable starts : int array;
  mutable durations : int array;
  mutable depths : int array;
  mutable seqs : int array;
  mutable cores : int array;
  mutable caller_args : (string * string) list array;
  mutable trace_ids : ids;
  mutable span_ids : ids;
  mutable parent_ids : ids;
}

(* An item takes the next slot when it opens, so slot order is seq order
   and nothing is sorted. Every column is an unboxed array or holds what
   the caller passed, so recording a span allocates nothing that lives
   on after it except the caller's args list. The open spans are a
   stack in columns too: the slot of each (-1 when it was dropped) and
   its trace and span id, which its children and instants inherit. *)
type sink = {
  mutable clk : Cycles.Clock.t;
  capacity : int;
  mutable cur_core : int;
  mutable tracer : Tracectx.t option;
  cols : columns;
  mutable open_n : int;
  mutable open_slots : int array;
  mutable open_traces : ids;
  mutable open_spans : ids;
  mutable n : int;
  mutable dropped_n : int;
  mutable next_seq : int;
}

let ids_of_length n =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0L;
  a

let create ?(capacity = 65536) ~clock () =
  {
    clk = clock;
    capacity;
    cur_core = 0;
    tracer = None;
    cols =
      {
        used = 0;
        states = [||];
        names = [||];
        starts = [||];
        durations = [||];
        depths = [||];
        seqs = [||];
        cores = [||];
        caller_args = [||];
        trace_ids = ids_of_length 0;
        span_ids = ids_of_length 0;
        parent_ids = ids_of_length 0;
      };
    open_n = 0;
    open_slots = [||];
    open_traces = ids_of_length 0;
    open_spans = ids_of_length 0;
    n = 0;
    dropped_n = 0;
    next_seq = 0;
  }

let set_clock s clk = s.clk <- clk

let set_core s core = s.cur_core <- core

let set_tracer s tr = s.tracer <- tr

let columns s = s.cols
let now s = Int64.to_int (Cycles.Clock.now s.clk)

(* the trace of the innermost open span, 0 for none *)
let[@inline] open_trace s = if s.open_n = 0 then 0L else s.open_traces.{s.open_n - 1}

let current_trace s =
  let t = open_trace s in
  if Int64.equal t 0L then None else Some t

let grown a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grown_ids (a : ids) len =
  let b = ids_of_length len in
  Bigarray.Array1.(blit a (sub b 0 (dim a)));
  b

(* Double the columns, up to [capacity]. *)
let grow s =
  let c = s.cols in
  let len = min s.capacity (max 64 (2 * Array.length c.seqs)) in
  c.states <- grown c.states len Open;
  c.names <- grown c.names len "";
  c.starts <- grown c.starts len 0;
  c.durations <- grown c.durations len 0;
  c.depths <- grown c.depths len 0;
  c.seqs <- grown c.seqs len 0;
  c.cores <- grown c.cores len 0;
  c.caller_args <- grown c.caller_args len [];
  c.trace_ids <- grown_ids c.trace_ids len;
  c.span_ids <- grown_ids c.span_ids len;
  c.parent_ids <- grown_ids c.parent_ids len

(* The next free slot, stamped with everything known when its item
   opens; -1 once [capacity] slots are in use. *)
let reserve s state name args =
  let c = s.cols in
  let i = c.used in
  if i >= s.capacity then -1
  else begin
    if i = Array.length c.seqs then grow s;
    c.used <- i + 1;
    c.states.(i) <- state;
    c.names.(i) <- name;
    c.starts.(i) <- now s;
    c.depths.(i) <- s.open_n;
    c.seqs.(i) <- s.next_seq;
    c.cores.(i) <- s.cur_core;
    c.caller_args.(i) <- args;
    i
  end

let[@inline] set_ids c i ~trace ~span ~parent =
  c.trace_ids.{i} <- trace;
  c.span_ids.{i} <- span;
  c.parent_ids.{i} <- parent

let enter s ?(args = []) name =
  let d = s.open_n in
  if d = Array.length s.open_slots then begin
    let len = max 16 (2 * d) in
    s.open_slots <- grown s.open_slots len (-1);
    s.open_traces <- grown_ids s.open_traces len;
    s.open_spans <- grown_ids s.open_spans len
  end;
  (* a traced span under a traced span joins its trace and names it as
     parent; any other traced span starts a trace *)
  let parent_trace = open_trace s in
  let joins = Option.is_some s.tracer && not (Int64.equal parent_trace 0L) in
  let trace =
    match s.tracer with
    | None -> 0L
    | Some tr -> if joins then parent_trace else Tracectx.fresh_id tr
  in
  let span = match s.tracer with None -> 0L | Some tr -> Tracectx.fresh_id tr in
  let parent = if joins then s.open_spans.{d - 1} else 0L in
  let slot = reserve s Open name args in
  s.next_seq <- s.next_seq + 1;
  if slot >= 0 then set_ids s.cols slot ~trace ~span ~parent;
  s.open_slots.(d) <- slot;
  s.open_traces.{d} <- trace;
  s.open_spans.{d} <- span;
  s.open_n <- d + 1

let leave s ?(args = []) () =
  if s.open_n > 0 then begin
    let d = s.open_n - 1 in
    s.open_n <- d;
    let i = s.open_slots.(d) in
    if i < 0 then s.dropped_n <- s.dropped_n + 1
    else begin
      let c = s.cols in
      c.states.(i) <- Closed;
      c.durations.(i) <- now s - c.starts.(i);
      (match args with [] -> () | _ -> c.caller_args.(i) <- c.caller_args.(i) @ args);
      s.n <- s.n + 1
    end
  end

let with_span s ?args name f =
  enter s ?args name;
  match f () with
  | v ->
      leave s ();
      v
  | exception e ->
      leave s ();
      raise e

let instant s ?(args = []) name =
  let slot = reserve s Point name args in
  s.next_seq <- s.next_seq + 1;
  if slot < 0 then s.dropped_n <- s.dropped_n + 1
  else begin
    set_ids s.cols slot ~trace:(open_trace s) ~span:0L ~parent:0L;
    s.n <- s.n + 1
  end

(* The ids as [Tracectx] writes them, ahead of the caller's args. *)
let id_args c i =
  let arg k v = (k, Tracectx.id_to_string v) in
  let trace = c.trace_ids.{i} and parent = c.parent_ids.{i} in
  if Int64.equal trace 0L then []
  else if c.states.(i) = Point then [ arg "trace_id" trace ]
  else
    arg "trace_id" trace
    :: arg "span_id" c.span_ids.{i}
    :: (if Int64.equal parent 0L then [] else [ arg "parent_id" parent ])

let items s =
  let c = s.cols in
  let acc = ref [] in
  for i = c.used - 1 downto 0 do
    match c.states.(i) with
    | Open -> ()
    | Closed ->
        acc :=
          Complete
            {
              name = c.names.(i);
              start_cycles = Int64.of_int c.starts.(i);
              duration = Int64.of_int c.durations.(i);
              depth = c.depths.(i);
              seq = c.seqs.(i);
              core = c.cores.(i);
              args = id_args c i @ c.caller_args.(i);
            }
          :: !acc
    | Point ->
        acc :=
          Instant
            {
              i_name = c.names.(i);
              i_at = Int64.of_int c.starts.(i);
              i_depth = c.depths.(i);
              i_seq = c.seqs.(i);
              i_core = c.cores.(i);
              i_args = id_args c i @ c.caller_args.(i);
            }
          :: !acc
  done;
  !acc

let spans s =
  List.filter_map (function Complete sp -> Some sp | Instant _ -> None) (items s)

let depth s = s.open_n
let count s = s.n
let dropped s = s.dropped_n

(* Spans still open keep their slots, moved to the front outermost
   first, which is their seq order. *)
let clear s =
  let c = s.cols in
  let k = ref 0 in
  for d = 0 to s.open_n - 1 do
    let j = s.open_slots.(d) in
    if j >= 0 then begin
      let i = !k in
      c.states.(i) <- Open;
      c.names.(i) <- c.names.(j);
      c.starts.(i) <- c.starts.(j);
      c.depths.(i) <- c.depths.(j);
      c.seqs.(i) <- c.seqs.(j);
      c.cores.(i) <- c.cores.(j);
      c.caller_args.(i) <- c.caller_args.(j);
      c.trace_ids.{i} <- c.trace_ids.{j};
      c.span_ids.{i} <- c.span_ids.{j};
      c.parent_ids.{i} <- c.parent_ids.{j};
      s.open_slots.(d) <- i;
      k := i + 1
    end
  done;
  Array.fill c.names !k (c.used - !k) "";
  Array.fill c.caller_args !k (c.used - !k) [];
  c.used <- !k;
  s.n <- 0;
  s.dropped_n <- 0
