(* The four workloads. [setup] builds a fresh deployment from the seed
   and runs the first invocation of every image or function; it returns
   the request stream. Each [next ()] draws one request from the seeded
   sequence and returns the thunk that serves it on the current
   simulated core and checks its output against a host reference. *)

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* [Served s]: done and correct; [s] summarises the output for the
   run's digest. [Failed s]: refused or given up on (counted, not
   wrong). *)
type served = Served of string | Failed of string

type env = {
  w : Wasp.Runtime.t;
  next : unit -> unit -> served;
  hub : Telemetry.Hub.t option;
  probes : Vtrace.Engine.t option;
  supervisor : Wasp.Supervisor.t option;
  gateway : Serverless.Gateway.t option;
}

type t = {
  name : string;
  cores : int;  (** simulated cores *)
  rate : float;  (** Poisson arrivals per simulated second *)
  prefix : int;  (** measured requests behind the simulated metrics and digest *)
  period : int;  (** the request mix repeats every [period] requests (see [deck]) *)
  warmup : int;
      (** requests of the stream run as part of set-up: whole periods and,
          in a deployment, whole export intervals *)
  sinks : bool;  (** deployed with the full observability stack attached *)
  setup : seed:int -> sinks:bool -> env;
}

(* Simulated cycles spent inside spanned calls, for the host
   ns-per-simulated-cycle ratios of the traced run. *)
let sim_cycles : (string, int64) Hashtbl.t = Hashtbl.create 4

let add_cycles name c =
  let old = Option.value ~default:0L (Hashtbl.find_opt sim_cycles name) in
  Hashtbl.replace sim_cycles name (Int64.add old c)

(* Draws from [items] in shuffled decks: every [Array.length items]
   consecutive draws hold each item once, so the request mix is the same
   at every seed and only its order changes. An i.i.d. draw over a run of
   a few thousand requests moves host time by several percent from seed
   to seed. *)
let deck rng items =
  let d = Array.copy items in
  let n = Array.length d in
  let pos = ref n in
  fun () ->
    if !pos = n then begin
      for i = n - 1 downto 1 do
        let j = Cycles.Rng.int rng (i + 1) in
        let x = d.(i) in
        d.(i) <- d.(j);
        d.(j) <- x
      done;
      pos := 0
    end;
    let x = d.(!pos) in
    incr pos;
    x

let compile ?snapshot ~name src =
  Hspan.span "vcc.compile" (fun () -> Vcc.Compile.compile ?snapshot ~name src)

let virtine compiled fname =
  match Vcc.Compile.find_virtine compiled fname with
  | Some vi -> vi
  | None -> failwith ("no virtine " ^ fname)

(* The observability a deployment runs with: a telemetry hub with causal
   tracing and vtrace probes on the exit, hypercall and pool sites. *)
let probe_spec =
  "exit { count() by (reason) }; hypercall { count() by (reason) }; pool_acquire { count() by \
   (reason) }"

let attach_sinks w ~seed =
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  Telemetry.Hub.enable_tracing hub ~seed;
  let probes =
    match Vtrace.Engine.of_string probe_spec with Ok e -> e | Error m -> failwith m
  in
  Vtrace.Engine.set_metrics probes (Some (Telemetry.Hub.metrics hub));
  Wasp.Runtime.set_probes w (Some probes);
  (hub, probes)

let plain w next =
  { w; next; hub = None; probes = None; supervisor = None; gateway = None }

(* ------------------------------------------------------------------ *)
(* fib_pair: Figure 11 as traffic                                      *)
(* ------------------------------------------------------------------ *)

let fib_src = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"

let rec host_fib n = if n < 2 then n else host_fib (n - 1) + host_fib (n - 2)

(* n runs over 4..18: fifteen values, so the median request sits in the
   middle of one n's group rather than on the edge between two. *)
let fib_ns = Array.init 15 (fun i -> i + 4)
let fib_of = Array.init 19 host_fib

let fib_pair_setup ~seed ~sinks:_ =
  let compiled = compile ~name:"fibpair" fib_src in
  let vi = virtine compiled "fib" in
  let image = vi.Vcc.Compile.image in
  let policy = vi.Vcc.Compile.policy in
  let snapshot_key = image.Wasp.Image.name in
  let w = Wasp.Runtime.create ~seed ~clean:`Async () in
  let pick = deck (Cycles.Rng.create ~seed:(seed + 1)) fib_ns in
  let serve n () =
    let arg = [ Int64.of_int n ] in
    let clock = Wasp.Runtime.clock w in
    let c0 = Cycles.Clock.now clock in
    let native =
      Hspan.span "vcc.invoke_native" (fun () ->
          Vcc.Compile.invoke_native ~clock compiled "fib" arg ())
    in
    add_cycles "native" (Cycles.Clock.elapsed_since clock c0);
    let r =
      Hspan.span "wasp.run" (fun () -> Wasp.Runtime.run w image ~policy ~args:arg ~snapshot_key ())
    in
    add_cycles "virtine" r.Wasp.Runtime.cycles;
    let want = Int64.of_int fib_of.(n) in
    (match r.Wasp.Runtime.outcome with
    | Wasp.Runtime.Exited v when Int64.equal v want -> ()
    | _ -> wrong "fib_pair: virtine fib(%d) returned %Ld, want %Ld" n r.return_value want);
    if not (Int64.equal native want) then
      wrong "fib_pair: native fib(%d) returned %Ld, want %Ld" n native want;
    Served (Printf.sprintf "fib(%d)=%Ld" n want)
  in
  (* first invocations: the native program build and the snapshot capture *)
  ignore (serve 10 ());
  plain w (fun () -> serve (pick ()))

(* ------------------------------------------------------------------ *)
(* http_cold: every request boots the file-server virtine              *)
(* ------------------------------------------------------------------ *)

let file_sizes = [| 64; 200; 512; 1024; 2000; 4096; 16384; 65536 |]

(* Both handlers read at most this much of a file into their buffer. *)
let handler_read_max = 2048

(* [Runtime.run] with the canned handlers; in a traced run the same
   handlers are wrapped in timers, which splits the call into the boot
   path (entry to the first hypercall handler), the handlers, and the
   clean-up (the [inspect] callback to return). *)
let run_spanned w image ~policy ~conn =
  if not !Hspan.on then Wasp.Runtime.run w image ~policy ~conn ()
  else
    Hspan.span "wasp.run" (fun () ->
        Hspan.enter "wasp.boot_path";
        let booting = ref true in
        let end_boot () =
          if !booting then begin
            booting := false;
            Hspan.leave ()
          end
        in
        let handlers nr =
          end_boot ();
          Option.map
            (fun h inv args -> Hspan.span "wasp.handlers" (fun () -> h inv args))
            (Wasp.Handlers.canned nr)
        in
        let inspect _ _ =
          end_boot ();
          Hspan.enter "wasp.clean"
        in
        let r = Wasp.Runtime.run w image ~policy ~conn ~handlers ~inspect () in
        Hspan.leave ();
        r)

let http_cold_setup ~seed ~sinks:_ =
  let handler name src = virtine (compile ~snapshot:false ~name src) "handle" in
  let classic = handler "fileserver" Vhttp.Fileserver.source in
  let ring = handler "fileserver_ring" Vhttp.Fileserver.ring_source in
  let w = Wasp.Runtime.create ~seed ~clean:`Async ~cores:2 () in
  let env = Wasp.Runtime.env w in
  let corpus_rng = Cycles.Rng.create ~seed:(seed + 2) in
  let files =
    Array.mapi
      (fun i size ->
        let path = Printf.sprintf "/f%d.html" i in
        let body = String.init size (fun _ -> Char.chr (32 + Cycles.Rng.int corpus_rng 95)) in
        Wasp.Hostenv.add_file env ~path body;
        (path, Some (String.sub body 0 (min size handler_read_max))))
      file_sizes
  in
  (* each file twice plus one missing path: 1 in 17 requests is a 404 *)
  let slots = Array.append (Array.append files files) [| ("/missing.html", None) |] in
  let combos =
    Array.concat (List.map (fun h -> Array.map (fun s -> (h, s)) slots) [ `Classic; `Ring ])
  in
  let pick = deck (Cycles.Rng.create ~seed:(seed + 1)) combos in
  let serve (handler, (path, expect)) () =
    let vi = match handler with `Classic -> classic | `Ring -> ring in
    let client, server = Wasp.Hostenv.socket_pair env in
    ignore (Wasp.Hostenv.send client (Bytes.of_string (Vhttp.Fileserver.request_for ~path)));
    let r = run_spanned w vi.Vcc.Compile.image ~policy:vi.Vcc.Compile.policy ~conn:server in
    (match r.Wasp.Runtime.outcome with
    | Wasp.Runtime.Exited _ -> ()
    | _ -> wrong "http_cold %s: handler did not exit cleanly" path);
    Hspan.span "bench.check" @@ fun () ->
    let raw = Bytes.to_string (Wasp.Hostenv.recv client ~max:(1 lsl 20)) in
    match Vhttp.Http.parse_response raw with
    | Error e -> wrong "http_cold %s: bad response: %s" path e
    | Ok resp -> (
        let status = resp.Vhttp.Http.status and body = resp.Vhttp.Http.resp_body in
        match expect with
        | Some want when status = 200 && String.equal body want ->
            Served (Printf.sprintf "%s 200 %s" path (Digest.to_hex (Digest.string body)))
        | None when status = 404 -> Served (path ^ " 404")
        | Some _ | None ->
            wrong "http_cold %s: status %d, %d-byte body" path status (String.length body))
  in
  ignore (serve (`Classic, files.(0)) ());
  ignore (serve (`Ring, files.(0)) ());
  plain w (fun () -> serve (pick ()))

(* ------------------------------------------------------------------ *)
(* faas_js: Vespid behind the gateway, deployed                        *)
(* ------------------------------------------------------------------ *)

let checksum_js =
  {|
function checksum(data) {
  var h = 7;
  for (var i = 0; i < data.length; i++) {
    h = (h * 31 + data[i]) % 1000003;
  }
  return h;
}
|}

let range_js =
  {|
function range(data) {
  var lo = 255;
  var hi = 0;
  var odd = 0;
  for (var i = 0; i < data.length; i++) {
    var b = data[i];
    if (b < lo) lo = b;
    if (b > hi) hi = b;
    odd += b & 1;
  }
  return lo + ":" + hi + ":" + odd;
}
|}

let bytes_fold f init b =
  let acc = ref init in
  Bytes.iter (fun c -> acc := f !acc (Char.code c)) b;
  !acc

(* (source name, JS source, entry, host reference) *)
let js_sources =
  [|
    ("b64", Vjs.Workload.base64_js_source, "encode", Vjs.Workload.reference_encode);
    ( "sum",
      checksum_js,
      "checksum",
      fun b -> string_of_int (bytes_fold (fun h x -> ((h * 31) + x) mod 1000003) 7 b) );
    ( "range",
      range_js,
      "range",
      fun b ->
        let lo = bytes_fold min 255 b and hi = bytes_fold max 0 b in
        Printf.sprintf "%d:%d:%d" lo hi (bytes_fold (fun n x -> n + (x land 1)) 0 b) );
  |]

let tenants = 32
let payload_sizes = [| 16; 256; 1024 |]

(* Zipf(1.0) over function ranks: P(rank r) is proportional to 1/r. *)
let zipf rng n =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !total
  done;
  fun () ->
    let u = Cycles.Rng.float rng *. !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* [n] seeded random bytes, eight per draw. *)
let random_bytes rng n =
  let b = Bytes.create n in
  let word = ref 0L in
  for i = 0 to n - 1 do
    if i land 7 = 0 then word := Cycles.Rng.int64 rng;
    let byte = Int64.to_int (Int64.shift_right_logical !word (8 * (i land 7))) land 0xFF in
    Bytes.set b i (Char.chr byte)
  done;
  b

let post path body =
  Vhttp.Http.request_to_string (Vhttp.Http.make_request ~body "POST" path)

let faas_js_setup ~seed ~sinks =
  let w = Wasp.Runtime.create ~seed ~clean:`Async () in
  let hub, probes =
    if sinks then
      let h, p = attach_sinks w ~seed in
      (Some h, Some p)
    else (None, None)
  in
  let gw = Serverless.Gateway.create (Serverless.Vespid.create w) in
  if sinks then Serverless.Gateway.enable_slos gw ();
  let fns =
    Array.init (tenants * Array.length js_sources) (fun i ->
        let src_name, source, entry, reference = js_sources.(i mod Array.length js_sources) in
        let name = Printf.sprintf "t%02d-%s" (i / Array.length js_sources) src_name in
        (name, source, entry, reference))
  in
  let handle raw =
    let resp =
      Hspan.span "serverless.gateway_handle" (fun () -> Serverless.Gateway.handle gw raw)
    in
    Hspan.span "bench.check" @@ fun () ->
    match Vhttp.Http.parse_response resp with
    | Ok r -> r
    | Error e -> wrong "faas_js: bad gateway response: %s" e
  in
  Array.iter
    (fun (name, source, entry, _) ->
      let r = handle (post (Printf.sprintf "/register/%s?entry=%s" name entry) source) in
      if r.Vhttp.Http.status <> 201 then wrong "faas_js: registering %s gave %d" name r.status)
    fns;
  let rank = zipf (Cycles.Rng.create ~seed:(seed + 3)) (Array.length fns) in
  let size = deck (Cycles.Rng.create ~seed:(seed + 1)) payload_sizes in
  let bytes_rng = Cycles.Rng.create ~seed:(seed + 4) in
  let serve (name, raw, want) () =
    let r = handle raw in
    match r.Vhttp.Http.status with
    | 200 ->
        if not (String.equal r.resp_body want) then
          wrong "faas_js %s: got %S, want %S" name r.resp_body want;
        Served (Printf.sprintf "%s %s" name (Digest.to_hex (Digest.string want)))
    | (429 | 500 | 503) as s -> Failed (Printf.sprintf "%s %d" name s)
    | s -> wrong "faas_js %s: status %d" name s
  in
  let request (name, _, _, reference) payload =
    serve (name, post ("/invoke/" ^ name) (Bytes.to_string payload), reference payload)
  in
  let draw () =
    let fn = fns.(rank ()) in
    request fn (random_bytes bytes_rng (size ()))
  in
  (* first invocation of every function, in registration order *)
  Array.iter (fun fn -> ignore (request fn (Bytes.of_string "first invocation") ())) fns;
  { w; next = draw; hub; probes; supervisor = None; gateway = Some gw }

(* ------------------------------------------------------------------ *)
(* tiny_chaos: the per-invocation floor, supervised under faults       *)
(* ------------------------------------------------------------------ *)

(* A 64 KB global whose pages all hold data at snapshot time, so each
   page the virtine writes is a copy-on-write break of a shared page. *)
let buf_bytes = 65536

let tiny_src =
  Printf.sprintf
    "char buf[%d] = \"%s\";\n\
     virtine int touch(int k) { int i = 0; while (i < k) { buf[i * 4096] = 98; i = i + 1; } \
     return k; }"
    buf_bytes
    (String.make (buf_bytes - 1) 'a')

(* pages written per request; nine entries put the median inside k = 1 *)
let tiny_ks = [| 0; 0; 1; 1; 1; 2; 4; 8; 16 |]

(* low enough that four attempts in a row never all fail *)
let fault_plan ~seed =
  Cycles.Fault_plan.create ~seed
    [
      (Kvmsim.Kvm.site_spurious_exit, Cycles.Fault_plan.Prob 0.01);
      (Kvmsim.Kvm.site_ept_storm, Cycles.Fault_plan.Prob 0.01);
      (Kvmsim.Kvm.site_snapshot_corrupt, Cycles.Fault_plan.Prob 0.002);
      (Kvmsim.Kvm.site_guest_hang, Cycles.Fault_plan.Prob 0.002);
    ]

let tiny_chaos_setup ~seed ~sinks =
  let vi = virtine (compile ~name:"tiny" tiny_src) "touch" in
  let image = vi.Vcc.Compile.image and policy = vi.Vcc.Compile.policy in
  let snapshot_key = image.Wasp.Image.name in
  let w = Wasp.Runtime.create ~seed ~clean:`Async ~reset:`Cow () in
  Wasp.Runtime.set_fault_plan w (Some (fault_plan ~seed:(seed lxor 0xFA17)));
  let sup =
    Wasp.Supervisor.create
      ~config:{ Wasp.Supervisor.default_config with attempt_fuel = Some 200_000 }
      w
  in
  let hub, probes =
    if sinks then begin
      let h, p = attach_sinks w ~seed in
      (* Slo.record rescans every event in its longest window, so a
         period sized for this rate keeps the windows about as full as
         the gateway's SLOs are in faas_js (~1000 events) *)
      Wasp.Supervisor.set_slo sup
        (Some
           (Telemetry.Slo.create ~hub:h ~name:"tiny_availability" ~target:0.999
              ~period:1_000_000_000L ()));
      (Some h, Some p)
    end
    else (None, None)
  in
  let pick = deck (Cycles.Rng.create ~seed:(seed + 1)) tiny_ks in
  let serve k () =
    let o =
      Hspan.span "wasp.supervisor_run" (fun () ->
          Wasp.Supervisor.run sup image ~policy ~args:[ Int64.of_int k ] ~snapshot_key ())
    in
    match o.Wasp.Supervisor.result with
    | Ok r when Int64.equal r.Wasp.Runtime.return_value (Int64.of_int k) ->
        Served (Printf.sprintf "k=%d attempts=%d" k o.attempts)
    | Ok r -> wrong "tiny_chaos: touch(%d) returned %Ld" k r.Wasp.Runtime.return_value
    | Error (cls, msg) ->
        Failed (Printf.sprintf "k=%d %s: %s" k (Wasp.Supervisor.error_class_to_string cls) msg)
  in
  ignore (serve 1 ());
  { w; next = (fun () -> serve (pick ())); hub; probes; supervisor = Some sup; gateway = None }

(* Rates sit at about 70% of each workload's simulated capacity at the
   default seed; [prefix] sizes the deterministic part of a run. *)
let all =
  [
    {
      name = "fib_pair";
      cores = 1;
      rate = 6600.0;
      prefix = 1000;
      period = Array.length fib_ns;
      warmup = 60;
      sinks = false;
      setup = fib_pair_setup;
    };
    {
      name = "http_cold";
      cores = 2;
      rate = 30700.0;
      prefix = 2000;
      period = 34;
      warmup = 306;
      sinks = false;
      setup = http_cold_setup;
    };
    {
      name = "faas_js";
      cores = 1;
      rate = 5200.0;
      prefix = 2000;
      period = Array.length payload_sizes;
      warmup = 999;
      sinks = true;
      setup = faas_js_setup;
    };
    {
      name = "tiny_chaos";
      cores = 1;
      rate = 57000.0;
      prefix = 10000;
      period = Array.length tiny_ks;
      warmup = 2997;
      sinks = true;
      setup = tiny_chaos_setup;
    };
  ]
