let base64_js_source =
  {|
var chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
function encode(data) {
  var out = "";
  var i = 0;
  var n = data.length;
  while (i + 2 < n) {
    var b0 = data[i];
    var b1 = data[i + 1];
    var b2 = data[i + 2];
    out += chars.charAt(b0 >> 2);
    out += chars.charAt(((b0 & 3) << 4) | (b1 >> 4));
    out += chars.charAt(((b1 & 15) << 2) | (b2 >> 6));
    out += chars.charAt(b2 & 63);
    i += 3;
  }
  var rem = n - i;
  if (rem === 1) {
    var c0 = data[i];
    out += chars.charAt(c0 >> 2);
    out += chars.charAt((c0 & 3) << 4);
    out += "==";
  } else if (rem === 2) {
    var d0 = data[i];
    var d1 = data[i + 1];
    out += chars.charAt(d0 >> 2);
    out += chars.charAt(((d0 & 3) << 4) | (d1 >> 4));
    out += chars.charAt((d1 & 15) << 2);
    out += "=";
  }
  return out;
}
|}

let make_input ~size =
  let rng = Cycles.Rng.create ~seed:0xB64 in
  Bytes.init size (fun _ -> Char.chr (Cycles.Rng.int rng 256))

let reference_encode b = Vcrypto.Base64.encode (Bytes.to_string b)

type outcome = { latency_cycles : int64; output : string }

let data_value input =
  Jsvalue.Arr
    (Jsvalue.vec_of_list
       (List.init (Bytes.length input) (fun i ->
            Jsvalue.Num (float_of_int (Char.code (Bytes.get input i))))))

let encode_with engine input =
  match Engine.call engine "encode" [ data_value input ] with
  | Ok (Jsvalue.Str s) -> s
  | Ok v -> failwith ("encode returned non-string: " ^ Jsvalue.to_string v)
  | Error e -> failwith ("js error: " ^ e)

let base64_program = lazy (Engine.compile base64_js_source)

(* a context with the UDF loaded *)
let load ~charge =
  let engine = Engine.create ~charge () in
  (match Engine.run engine (Lazy.force base64_program) with
  | Ok _ -> ()
  | Error e -> failwith ("js error: " ^ e));
  engine

let run_baseline ~clock ~input =
  let start = Cycles.Clock.now clock in
  let charge c = Cycles.Clock.advance_int clock c in
  let engine = load ~charge in
  let output = encode_with engine input in
  Engine.destroy engine;
  { latency_cycles = Cycles.Clock.elapsed_since clock start; output }

(* engine heap arena: Duktape keeps its context in ~48 KB of heap, which
   is what the snapshot must capture and restore *)
let arena_bytes = 48 * 1024

type Wasp.Univ.t += Js_engine of Engine.t

let policy =
  Wasp.Policy.of_list [ Wasp.Hc.snapshot; Wasp.Hc.get_data; Wasp.Hc.return_data ]

let run_virtine w ~input ~snapshot ~teardown ~key =
  let module N = Wasp.Runtime.Native_ctx in
  let result =
    Wasp.Runtime.run_native w ~name:"js-base64" ~mem_size:(128 * 1024) ~policy ~input
      ?snapshot_key:(if snapshot then Some key else None)
      ~body:(fun ctx ~restored ->
        let charge c = N.charge ctx c in
        (* Cold path: the snapshot capture and the input fetch share one
           crossing via [hypercall_batch]; the warm path pays a single
           [get_data] round trip. *)
        let snapshot_pending = ref false in
        let engine =
          match restored with
          | Some (Js_engine e) ->
              Engine.set_charge e charge;
              e
          | Some _ | None ->
              (* boot path: allocate the engine context inside guest
                 memory (the arena), bind natives, load the UDF *)
              let arena = N.alloc ctx arena_bytes in
              let mem = N.mem ctx in
              (* touch the arena so the snapshot captures a real footprint *)
              for i = 0 to (arena_bytes / 256) - 1 do
                Vm.Memory.write_u8 mem (arena + (i * 256)) 0xDA
              done;
              let e = load ~charge in
              if snapshot then begin
                (* the restore path rebuilds the same engine state from
                   the memory image; the rebuild itself is free because
                   the restore memcpy is what is charged *)
                N.offer_snapshot_state ctx (fun () -> Js_engine (load ~charge:(fun _ -> ())));
                snapshot_pending := true
              end;
              e
        in
        (* pull the input through the only data channel *)
        let buf = N.alloc ctx (Bytes.length input) in
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
        let out = encode_with engine data in
        (* publish and exit *)
        let out_addr = N.alloc ctx (String.length out) in
        Vm.Memory.write_bytes mem ~off:out_addr (Bytes.of_string out);
        ignore
          (N.hypercall ctx Wasp.Hc.return_data
             [| Int64.of_int out_addr; Int64.of_int (String.length out) |]);
        if teardown then Engine.destroy engine;
        0L)
      ()
  in
  let output =
    match result.Wasp.Runtime.output with
    | Some b -> Bytes.to_string b
    | None -> failwith "virtine produced no output"
  in
  { latency_cycles = result.Wasp.Runtime.cycles; output }
