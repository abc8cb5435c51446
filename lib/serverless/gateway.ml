type breaker_state = Wasp.Breaker.state = Closed | Open | Half_open

type breaker_config = { failure_threshold : int; cooldown : int64 }

let default_breaker_config = { failure_threshold = 5; cooldown = 100_000_000L }

type shed_config = { burst : int; refill_per_s : float }

type bucket = { mutable tokens : float; mutable last_refill : int64 }

(* the objectives [enable_slos] declares, documented in gateway.mli *)
let availability_target = 0.99
let latency_target = 0.99
let latency_threshold = 50_000_000L
let slo_period = 10_000_000_000L

type t = {
  platform : Vespid.t;
  mutable next_core : int;
  breaker_config : breaker_config;
  breakers : (string, Wasp.Breaker.t) Hashtbl.t;
  shed : shed_config option;
  bucket : bucket;
  mutable slos : (Telemetry.Slo.t * Telemetry.Slo.t) option;
      (* (availability, latency), when enabled *)
}

let create ?(breaker = default_breaker_config) ?shed platform =
  if breaker.failure_threshold < 1 then
    invalid_arg "Gateway.create: failure_threshold must be >= 1";
  (match shed with
  | Some s when s.burst < 1 || s.refill_per_s <= 0.0 ->
      invalid_arg "Gateway.create: shed config must have burst >= 1 and a positive rate"
  | Some _ | None -> ());
  {
    platform;
    next_core = 0;
    breaker_config = breaker;
    breakers = Hashtbl.create 8;
    shed;
    bucket =
      {
        tokens = (match shed with Some s -> float_of_int s.burst | None -> 0.0);
        last_refill = 0L;
      };
    slos = None;
  }

let kvm t = Wasp.Runtime.kvm (Vespid.runtime t.platform)
let clock t = Wasp.Runtime.clock (Vespid.runtime t.platform)
let now t = Cycles.Clock.now (clock t)

let shed_count t = Kvmsim.Kvm.tally (kvm t) "gateway_shed_total"
let breaker_rejections t = Kvmsim.Kvm.tally (kvm t) "gateway_breaker_rejections_total"

let enable_slos t () =
  match Wasp.Runtime.telemetry (Vespid.runtime t.platform) with
  | None -> invalid_arg "Gateway.enable_slos: platform runtime has no telemetry hub"
  | Some h ->
      let avail =
        Telemetry.Slo.create ~hub:h ~name:"gateway_availability"
          ~target:availability_target ~period:slo_period ()
      in
      let lat =
        Telemetry.Slo.create ~hub:h ~name:"gateway_latency"
          ~objective:(Telemetry.Slo.Latency_under latency_threshold)
          ~target:latency_target ~period:slo_period ()
      in
      t.slos <- Some (avail, lat)

let availability_slo t = Option.map fst t.slos
let latency_slo t = Option.map snd t.slos

(* Shed and breaker-rejected requests are bad availability — from the
   caller's side they failed, however deliberate the refusal. Latency
   is judged over completed invocations only (a 500 says nothing about
   speed; a refusal has no meaningful latency). *)
let slo_availability t ~good =
  match t.slos with
  | Some (avail, _) -> Telemetry.Slo.record avail ~good
  | None -> ()

let slo_latency t cycles =
  match t.slos with
  | Some (_, lat) -> Telemetry.Slo.record_latency lat cycles
  | None -> ()

let breaker_for t name =
  match Hashtbl.find_opt t.breakers name with
  | Some b -> b
  | None ->
      let { failure_threshold; cooldown } = t.breaker_config in
      let b = Wasp.Breaker.create ~threshold:failure_threshold ~cooldown in
      Hashtbl.replace t.breakers name b;
      b

(* a name never admitted has no breaker, and reads closed *)
let breaker_state t ~name =
  match Hashtbl.find_opt t.breakers name with
  | Some b -> Wasp.Breaker.state b ~now:(now t)
  | None -> Closed

let note_breaker_gauge t name state =
  if Kvmsim.Kvm.hub_attached (kvm t) then
    Kvmsim.Kvm.gauge (kvm t)
      ~help:"per-function circuit breaker (0 closed, 0.5 half-open, 1 open)"
      ~labels:[ ("fn", name) ] "wasp_breaker_state"
      (match state with Closed -> 0.0 | Half_open -> 0.5 | Open -> 1.0)

(* Token-bucket load shedding on the virtual clock: [burst] tokens,
   refilled at [refill_per_s] per virtual second. No tokens left means
   the platform is saturated; shed with a 429 rather than queue. The
   serving core's clock can read behind the stamp another core left, so
   the bucket refills only forward: a gap below zero adds nothing, and
   the stamp keeps the latest reading. *)
let try_take_token t =
  match t.shed with
  | None -> true
  | Some s ->
      let b = t.bucket in
      let n = now t in
      let elapsed_us =
        Cycles.Clock.to_us (clock t) (Int64.max 0L (Int64.sub n b.last_refill))
      in
      b.last_refill <- Int64.max n b.last_refill;
      b.tokens <-
        Float.min (float_of_int s.burst)
          (b.tokens +. (s.refill_per_s *. elapsed_us /. 1_000_000.0));
      if b.tokens >= 1.0 then begin
        b.tokens <- b.tokens -. 1.0;
        true
      end
      else false

let respond ?headers ~status body =
  Vhttp.Http.response_to_string (Vhttp.Http.make_response ?headers ~status body)

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

(* "name?entry=fn" -> (name, entry). Each pair splits on the first '='
   only, so an entry value may itself contain '=' (e.g. [entry=ns=main]). *)
let parse_register_target seg =
  match String.index_opt seg '?' with
  | None -> (seg, "main")
  | Some i ->
      let name = String.sub seg 0 i in
      let query = String.sub seg (i + 1) (String.length seg - i - 1) in
      let entry =
        List.find_map
          (fun kv ->
            match String.index_opt kv '=' with
            | Some j when String.sub kv 0 j = "entry" ->
                Some (String.sub kv (j + 1) (String.length kv - j - 1))
            | Some _ | None -> None)
          (String.split_on_char '&' query)
      in
      (name, Option.value ~default:"main" entry)

(* [handle] has already made the serving core current; the vtrace
   "gateway" site fires once per admission decision. A name [Vespid]
   does not know gets its 404 before any breaker is looked up, so it
   stores nothing. *)
let invoke t name body =
  let sys = kvm t in
  if not (try_take_token t) then begin
    Kvmsim.Kvm.count sys "gateway_shed_total";
    Kvmsim.Kvm.fire sys ~fn:name ~reason:"shed" ~cycles:0 ~nr:0 "gateway";
    slo_availability t ~good:false;
    respond ~status:429 "overloaded, request shed\n"
  end
  else if not (Vespid.mem t.platform ~name) then begin
    (* a bad name says nothing about the function's health *)
    Kvmsim.Kvm.fire sys ~fn:name ~reason:"not_found" ~cycles:0 ~nr:0 "gateway";
    respond ~status:404 (Printf.sprintf "no such function: %s\n" name)
  end
  else begin
    let b = breaker_for t name in
    match Wasp.Breaker.admit b ~now:(now t) with
    | Rejected ->
        Kvmsim.Kvm.count sys "gateway_breaker_rejections_total";
        Kvmsim.Kvm.fire sys ~fn:name ~reason:"breaker" ~cycles:0 ~nr:0 "gateway";
        slo_availability t ~good:false;
        respond ~status:503 (Printf.sprintf "circuit open for %s\n" name)
    | (Admitted | Probe) as admission -> (
        (* a probe is the request the cooldown's end admits *)
        if admission = Probe then note_breaker_gauge t name Half_open;
        (* admitted: the next request goes to the next core *)
        t.next_core <- (t.next_core + 1) mod Wasp.Runtime.cores (Vespid.runtime t.platform);
        match Vespid.invoke_timed t.platform ~name ~input:(Bytes.of_string body) with
        | Ok out, cycles ->
            Wasp.Breaker.succeed b;
            note_breaker_gauge t name Closed;
            Kvmsim.Kvm.fire sys ~fn:name ~reason:"ok" ~cycles:(Int64.to_int cycles) ~nr:0 "gateway";
            slo_availability t ~good:true;
            slo_latency t cycles;
            respond ~status:200 out
        | Error e, cycles ->
            note_breaker_gauge t name (if Wasp.Breaker.fail b ~now:(now t) then Open else Closed);
            Kvmsim.Kvm.fire sys ~fn:name ~reason:"error" ~cycles:(Int64.to_int cycles) ~nr:0 "gateway";
            slo_availability t ~good:false;
            respond ~status:500 (Printf.sprintf "function error: %s\n" e))
  end

let route t (req : Vhttp.Http.request) segments =
  match (req.Vhttp.Http.meth, segments) with
  | "GET", [ "functions" ] ->
      respond ~status:200 (String.concat "\n" (Vespid.registered t.platform) ^ "\n")
  | "POST", [ "register"; target ] ->
      let name, entry = parse_register_target target in
      if name = "" then respond ~status:400 "missing function name\n"
      else if req.Vhttp.Http.body = "" then respond ~status:400 "missing source body\n"
      else begin
        Vespid.register t.platform ~name ~source:req.Vhttp.Http.body ~entry;
        respond ~status:201 (Printf.sprintf "registered %s (entry %s)\n" name entry)
      end
  | "POST", [ "invoke"; name ] -> invoke t name req.Vhttp.Http.body
  | ("GET" | "POST"), _ -> respond ~status:404 "no such route\n"
  | _, _ -> respond ~status:405 "method not allowed\n"

let handle t raw =
  Kvmsim.Kvm.count (kvm t) "gateway_requests_total";
  match Vhttp.Http.parse_request raw with
  | Error e ->
      Kvmsim.Kvm.count (kvm t) "gateway_bad_requests_total";
      respond ~status:400 (Printf.sprintf "bad request: %s\n" e)
  | Ok req ->
      let segments = split_path req.Vhttp.Http.path in
      (* Requests are spread round-robin over the simulated cores, but a
         function with a retained shell runs on that shell's home core.
         An invocation's core is made current before [route] opens, so
         the span opens and closes on the clock of the core that serves
         it. *)
      (match (req.Vhttp.Http.meth, segments) with
      | "POST", [ "invoke"; name ] ->
          Wasp.Runtime.on_core (Vespid.runtime t.platform) t.next_core;
          Vespid.on_home_core t.platform ~name
      | _ -> ());
      let hub = Kvmsim.Kvm.hub_attached (kvm t) in
      let args = if hub then [ ("method", req.Vhttp.Http.meth); ("path", req.Vhttp.Http.path) ] else [] in
      Kvmsim.Kvm.span (kvm t) ~args "route" (fun () -> route t req segments)
