type t = {
  wasp : Wasp.Runtime.t;
  key : string;
  entry : string;
  snapshot : bool;
  teardown : bool;
  program : Engine.program Lazy.t;  (** compiled at the first build *)
}

type Wasp.Univ.t += Isolate_engine of Engine.t

(* engine heap arena: Duktape keeps its context in ~48 KB of heap, which
   is what the snapshot must capture and restore *)
let arena_bytes = 48 * 1024

let policy =
  Wasp.Policy.of_list [ Wasp.Hc.snapshot; Wasp.Hc.get_data; Wasp.Hc.return_data ]

let create ?(snapshot = true) ?(teardown = false) wasp ~key ~source ~entry =
  { wasp; key; entry; snapshot; teardown; program = lazy (Engine.compile source) }

let snapshot_key t = if t.snapshot then Some t.key else None
let on_home_core t = Wasp.Runtime.on_home_core t.wasp ~snapshot_key:(snapshot_key t)

(* A context with the isolate's program loaded. *)
let build t ~charge =
  let e = Engine.create ~charge () in
  match Engine.run e (Lazy.force t.program) with Ok _ -> Ok e | Error msg -> Error msg

(* What a restore yields: the memory image is the engine as the cold path
   built it, so the rebuild charges nothing (the restore memcpy carries
   the cost). It captures no invocation. *)
let restored_engine t () =
  match build t ~charge:(fun _ -> ()) with
  | Ok e -> Isolate_engine e
  | Error msg -> failwith msg

let run t ~input ~decode ~encode =
  let module N = Wasp.Runtime.Native_ctx in
  let error = ref None in
  let fail msg =
    error := Some msg;
    -1L
  in
  let result =
    Wasp.Runtime.run_native t.wasp ~name:("isolate:" ^ t.key) ~mem_size:(128 * 1024) ~policy
      ~input
      ?snapshot_key:(snapshot_key t)
      ~body:(fun ctx ~restored ->
        let charge c = N.charge ctx c in
        let hook c = charge (Engine.cycles c) in
        (* On the cold path the snapshot capture and the input fetch ride
           one crossing (the native analogue of the guest hypercall ring);
           warm invocations only ever need the [get_data]. *)
        let snapshot_pending = ref false in
        let engine =
          match restored with
          | Some (Isolate_engine e) ->
              Engine.set_charge e hook;
              Ok e
          | Some _ | None -> (
              (* boot path: the engine context lives in guest memory;
                 touch the arena so the snapshot captures its footprint *)
              let arena = N.alloc ctx arena_bytes in
              let mem = N.mem ctx in
              for i = 0 to (arena_bytes / 256) - 1 do
                Vm.Memory.write_u8 mem (arena + (i * 256)) 0x15
              done;
              match build t ~charge:hook with
              | Error msg -> Error msg
              | Ok e ->
                  if t.snapshot then begin
                    N.offer_snapshot_state ctx (restored_engine t);
                    snapshot_pending := true
                  end;
                  Ok e)
        in
        match engine with
        | Error msg -> fail msg
        | Ok engine ->
            (* pull the input through the data channel *)
            let buf = N.alloc ctx (max 8 (Bytes.length input)) in
            let get_args = [| Int64.of_int buf; Int64.of_int (Bytes.length input) |] in
            let n =
              if !snapshot_pending then
                match
                  N.hypercall_batch ctx
                    [ (Wasp.Hc.snapshot, [||]); (Wasp.Hc.get_data, get_args) ]
                with
                | [ _; n ] -> n
                | _ -> Wasp.Hc.err_inval
              else N.hypercall ctx Wasp.Hc.get_data get_args
            in
            let mem = N.mem ctx in
            let data = Vm.Memory.read_bytes mem ~off:buf ~len:(Int64.to_int n) in
            let rv =
              match decode ~charge data with
              | Error msg -> fail msg
              | Ok args -> (
                  match Engine.call engine t.entry args with
                  | Error msg -> fail msg
                  | Ok v ->
                      let out = encode v in
                      let out_addr = N.alloc ctx (max 8 (String.length out)) in
                      Vm.Memory.write_bytes mem ~off:out_addr (Bytes.of_string out);
                      N.hypercall ctx Wasp.Hc.return_data
                        [| Int64.of_int out_addr; Int64.of_int (String.length out) |])
            in
            if t.teardown then Engine.destroy engine;
            rv)
      ()
  in
  let outcome =
    match !error with
    | Some msg -> Error msg
    | None -> (
        match (result.Wasp.Runtime.outcome, result.Wasp.Runtime.output) with
        | Wasp.Runtime.Faulted f, _ -> Error (Format.asprintf "%a" Vm.Cpu.pp_exit (Fault f))
        | _, Some b -> Ok (Bytes.to_string b)
        | _, None -> Error "no output")
  in
  (outcome, result.Wasp.Runtime.cycles)

let invoke t ~input =
  let decode ~charge data =
    charge (Bytes.length data * 2);
    Ok [ Jsvalue.of_bytes data ]
  in
  run t ~input ~decode ~encode:Jsvalue.to_string

let call_json t args =
  let payload = Json.stringify (Jsvalue.Arr (Jsvalue.vec_of_list args)) in
  let decode ~charge data =
    (* parsing the argument JSON is guest work *)
    charge (Bytes.length data * 8);
    match Json.parse (Bytes.to_string data) with
    | Jsvalue.Arr v -> Ok (Jsvalue.vec_to_list v)
    | _ -> Error "malformed argument payload"
    | exception Jsvalue.Js_error msg -> Error msg
  in
  let encode v = Json.stringify v in
  let outcome, cycles = run t ~input:(Bytes.of_string payload) ~decode ~encode in
  match outcome with
  | Error msg -> (Error msg, cycles)
  | Ok json -> (
      match Json.parse json with
      | v -> (Ok v, cycles)
      | exception Jsvalue.Js_error msg -> (Error msg, cycles))
