type breaker_state = Closed | Open | Half_open

type breaker_config = { failure_threshold : int; cooldown : int64 }

let default_breaker_config = { failure_threshold = 5; cooldown = 100_000_000L }

type shed_config = { burst : int; refill_per_s : float }

type breaker = {
  mutable state : breaker_state;
  mutable failures : int;  (* consecutive, while Closed *)
  mutable opened_at : int64;
}

type bucket = { mutable tokens : float; mutable last_refill : int64 }

type slo_config = {
  availability_target : float;
  latency_target : float;
  latency_threshold : int64;
  slo_period : int64;
}

let default_slo_config =
  {
    availability_target = 0.99;
    latency_target = 0.99;
    latency_threshold = 50_000_000L;
    slo_period = 10_000_000_000L;
  }

type t = {
  platform : Vespid.t;
  mutable next_core : int;
  breaker_config : breaker_config;
  breakers : (string, breaker) Hashtbl.t;
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
let hub t = Wasp.Runtime.telemetry (Vespid.runtime t.platform)
let clock t = Wasp.Runtime.clock (Vespid.runtime t.platform)
let now t = Cycles.Clock.now (clock t)

let shed_count t = Kvmsim.Kvm.tally (kvm t) "gateway_shed_total"
let breaker_rejections t = Kvmsim.Kvm.tally (kvm t) "gateway_breaker_rejections_total"

let enable_slos t ?(config = default_slo_config) () =
  match hub t with
  | None -> invalid_arg "Gateway.enable_slos: platform runtime has no telemetry hub"
  | Some h ->
      let avail =
        Telemetry.Slo.create ~hub:h ~name:"gateway_availability"
          ~target:config.availability_target ~period:config.slo_period ()
      in
      let lat =
        Telemetry.Slo.create ~hub:h ~name:"gateway_latency"
          ~objective:(Telemetry.Slo.Latency_under config.latency_threshold)
          ~target:config.latency_target ~period:config.slo_period ()
      in
      t.slos <- Some (avail, lat)

let availability_slo t = Option.map fst t.slos
let latency_slo t = Option.map snd t.slos
let slos t = match t.slos with None -> [] | Some (a, l) -> [ a; l ]

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

(* vtrace "gateway" site: one fire per admission decision. *)
let fire t ~fn ~reason ~cycles = ignore (Kvmsim.Kvm.fire (kvm t) ~fn ~reason ~cycles "gateway")

let breaker_for t name =
  match Hashtbl.find_opt t.breakers name with
  | Some b -> b
  | None ->
      let b = { state = Closed; failures = 0; opened_at = 0L } in
      Hashtbl.replace t.breakers name b;
      b

let breaker_state t ~name =
  let b = breaker_for t name in
  (* An Open breaker past its cooldown will admit the next invoke as a
     half-open probe; report it as such. *)
  match b.state with
  | Open
    when Int64.compare (Int64.sub (now t) b.opened_at) t.breaker_config.cooldown >= 0
    ->
      Half_open
  | s -> s

let note_breaker_gauge t name (b : breaker) =
  match hub t with
  | None -> ()
  | Some h ->
      let v =
        match b.state with Closed -> 0.0 | Half_open -> 0.5 | Open -> 1.0
      in
      Telemetry.Metrics.set
        (Telemetry.Metrics.gauge (Telemetry.Hub.metrics h)
           ~help:"per-function circuit breaker (0 closed, 0.5 half-open, 1 open)"
           ~labels:[ ("fn", name) ] "wasp_breaker_state")
        v

let note_success t name (b : breaker) =
  b.failures <- 0;
  if b.state <> Closed then b.state <- Closed;
  note_breaker_gauge t name b

let note_failure t name (b : breaker) =
  (match b.state with
  | Half_open ->
      (* the probe failed: straight back to Open, cooldown restarts *)
      b.state <- Open;
      b.opened_at <- now t
  | Closed ->
      b.failures <- b.failures + 1;
      if b.failures >= t.breaker_config.failure_threshold then begin
        b.state <- Open;
        b.opened_at <- now t
      end
  | Open -> ());
  note_breaker_gauge t name b

(* Token-bucket load shedding on the virtual clock: [burst] tokens,
   refilled at [refill_per_s] per virtual second. No tokens left means
   the platform is saturated; shed with a 429 rather than queue. *)
let try_take_token t =
  match t.shed with
  | None -> true
  | Some s ->
      let b = t.bucket in
      let n = now t in
      let elapsed_us =
        Cycles.Clock.to_us (clock t) (Int64.sub n b.last_refill)
      in
      b.last_refill <- n;
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

let invoke t name body =
  if not (try_take_token t) then begin
    Kvmsim.Kvm.count (kvm t) "gateway_shed_total";
    fire t ~fn:name ~reason:"shed" ~cycles:0L;
    slo_availability t ~good:false;
    respond ~status:429 "overloaded, request shed\n"
  end
  else begin
    let b = breaker_for t name in
    (* Open -> Half_open once the cooldown has elapsed; the admitted
       request is the probe. *)
    (match b.state with
    | Open
      when Int64.compare (Int64.sub (now t) b.opened_at) t.breaker_config.cooldown
           >= 0 ->
        b.state <- Half_open;
        note_breaker_gauge t name b
    | Open | Half_open | Closed -> ());
    match b.state with
    | Open ->
        Kvmsim.Kvm.count (kvm t) "gateway_breaker_rejections_total";
        fire t ~fn:name ~reason:"breaker" ~cycles:0L;
        slo_availability t ~good:false;
        respond ~status:503 (Printf.sprintf "circuit open for %s\n" name)
    | Closed | Half_open -> (
        (* spread requests round-robin over the simulated cores *)
        let core = t.next_core in
        t.next_core <- (core + 1) mod Wasp.Runtime.cores (Vespid.runtime t.platform);
        match
          Vespid.invoke_timed_on t.platform ~core ~name ~input:(Bytes.of_string body)
        with
        | Ok out, cycles ->
            note_success t name b;
            fire t ~fn:name ~reason:"ok" ~cycles;
            slo_availability t ~good:true;
            slo_latency t cycles;
            respond ~status:200 out
        | Error e, cycles ->
            note_failure t name b;
            fire t ~fn:name ~reason:"error" ~cycles;
            slo_availability t ~good:false;
            respond ~status:500 (Printf.sprintf "function error: %s\n" e)
        | exception Vespid.Unknown_function _ ->
            (* a bad name says nothing about the function's health *)
            fire t ~fn:name ~reason:"not_found" ~cycles:0L;
            respond ~status:404 (Printf.sprintf "no such function: %s\n" name))
  end

let route t (req : Vhttp.Http.request) =
  match (req.Vhttp.Http.meth, split_path req.Vhttp.Http.path) with
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
  | Ok req -> (
      match hub t with
      | None -> route t req
      | Some h ->
          Telemetry.Hub.with_span h
            ~args:[ ("method", req.Vhttp.Http.meth); ("path", req.Vhttp.Http.path) ]
            "route"
            (fun () -> route t req))
