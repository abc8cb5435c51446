type t = { mutable clk : Cycles.Clock.t; sink : Span.sink; registry : Metrics.t }

let create ?capacity ~clock () =
  { clk = clock; sink = Span.create ?capacity ~clock (); registry = Metrics.create () }

let clock t = t.clk

let set_clock t clk =
  t.clk <- clk;
  Span.set_clock t.sink clk

let core t = Span.core t.sink
let set_core t core = Span.set_core t.sink core
let spans t = t.sink
let metrics t = t.registry

let enable_tracing t ~seed = Span.set_tracer t.sink (Some (Tracectx.create ~seed))
let current_trace t = Span.current_trace t.sink

let enter t ?args name = Span.enter t.sink ?args name
let leave t ?args () = Span.leave t.sink ?args ()
let with_span t ?args name f = Span.with_span t.sink ?args name f
let instant t ?args name = Span.instant t.sink ?args name

let observe t ?labels name v =
  let exemplar =
    match current_trace t with
    | Some id -> Some (Tracectx.id_to_string id)
    | None -> None
  in
  Metrics.observe ?exemplar (Metrics.histogram t.registry ?labels name) v

let set_gauge t ?help ?labels name v = Metrics.set (Metrics.gauge t.registry ?help ?labels name) v

let clear_spans t = Span.clear t.sink
