(* Reference model of the span sink: [Telemetry.Span] as it was when it
   kept finished items in a list, newest first, and sorted them by seq
   on every read. It keeps the first [capacity] items to finish, where
   the column store keeps the first [capacity] to open; with nothing
   dropped the two agree on every field, which test_telemetry checks on
   random scripts. Items are the library's own types, so the two sinks'
   items compare with [=]. *)

open Telemetry

type span = Span.span = {
  name : string;
  start_cycles : int64;
  duration : int64;
  depth : int;
  seq : int;
  core : int;
  args : (string * string) list;
}

type item = Span.item =
  | Complete of span
  | Instant of {
      i_name : string;
      i_at : int64;
      i_depth : int;
      i_seq : int;
      i_core : int;
      i_args : (string * string) list;
    }

(* The trace context as the tracer minted it then: a root takes a fresh
   trace id and then a fresh span id, a child its parent's trace id and
   a fresh span id. *)
type ids = {
  trace_id : int64;
  span_id : int64;
  parent_id : int64 option;
}

let mint_ids tr ~parent =
  match parent with
  | None ->
      let trace_id = Tracectx.fresh_id tr in
      let span_id = Tracectx.fresh_id tr in
      { trace_id; span_id; parent_id = None }
  | Some p -> { trace_id = p.trace_id; span_id = Tracectx.fresh_id tr; parent_id = Some p.span_id }

let args_of_ids ids =
  let base =
    [
      ("trace_id", Tracectx.id_to_string ids.trace_id);
      ("span_id", Tracectx.id_to_string ids.span_id);
    ]
  in
  match ids.parent_id with
  | None -> base
  | Some p -> base @ [ ("parent_id", Tracectx.id_to_string p) ]

type frame = {
  f_name : string;
  f_start : int64;
  f_depth : int;
  f_seq : int;
  f_core : int;
  f_args : (string * string) list;
  f_ids : ids option;
}

type sink = {
  mutable clk : Cycles.Clock.t;
  capacity : int;
  mutable core : int;
  mutable stack : frame list;
  mutable finished : item list; (* finish order, newest first *)
  mutable n : int;
  mutable dropped_n : int;
  mutable next_seq : int;
  mutable tracer : Tracectx.t option;
}

let create ?(capacity = 65536) ~clock () =
  {
    clk = clock;
    capacity;
    core = 0;
    stack = [];
    finished = [];
    n = 0;
    dropped_n = 0;
    next_seq = 0;
    tracer = None;
  }

let clock s = s.clk
let set_clock s clk = s.clk <- clk

let core s = s.core
let set_core s core = s.core <- core

let set_tracer s tr = s.tracer <- tr
let tracer s = s.tracer

let current_ids s =
  match s.stack with [] -> None | f :: _ -> f.f_ids

let current_trace s =
  match current_ids s with
  | Some ids -> Some ids.trace_id
  | None -> None

let push_item s item =
  if s.n >= s.capacity then s.dropped_n <- s.dropped_n + 1
  else begin
    s.finished <- item :: s.finished;
    s.n <- s.n + 1
  end

let fresh_seq s =
  let q = s.next_seq in
  s.next_seq <- q + 1;
  q

let enter s ?(args = []) name =
  let ids =
    match s.tracer with
    | None -> None
    | Some tr -> Some (mint_ids tr ~parent:(current_ids s))
  in
  let frame =
    {
      f_name = name;
      f_start = Cycles.Clock.now s.clk;
      f_depth = List.length s.stack;
      f_seq = fresh_seq s;
      f_core = s.core;
      f_args = args;
      f_ids = ids;
    }
  in
  s.stack <- frame :: s.stack

let leave s ?(args = []) () =
  match s.stack with
  | [] -> ()
  | f :: rest ->
      s.stack <- rest;
      let id_args =
        match f.f_ids with None -> [] | Some ids -> args_of_ids ids
      in
      push_item s
        (Complete
           {
             name = f.f_name;
             start_cycles = f.f_start;
             duration = Cycles.Clock.elapsed_since s.clk f.f_start;
             depth = f.f_depth;
             seq = f.f_seq;
             core = f.f_core;
             args = id_args @ f.f_args @ args;
           })

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
  let id_args =
    match current_ids s with
    | Some ids -> [ ("trace_id", Tracectx.id_to_string ids.trace_id) ]
    | None -> []
  in
  push_item s
    (Instant
       {
         i_name = name;
         i_at = Cycles.Clock.now s.clk;
         i_depth = List.length s.stack;
         i_seq = fresh_seq s;
         i_core = s.core;
         i_args = id_args @ args;
       })

let item_seq = function Complete sp -> sp.seq | Instant i -> i.i_seq

let items s = List.sort (fun a b -> compare (item_seq a) (item_seq b)) s.finished

let spans s =
  List.filter_map (function Complete sp -> Some sp | Instant _ -> None) (items s)

let depth s = List.length s.stack
let count s = s.n
let dropped s = s.dropped_n

let clear s =
  s.finished <- [];
  s.n <- 0;
  s.dropped_n <- 0
