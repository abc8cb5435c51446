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

let encode_with engine input =
  match Engine.call engine "encode" [ Jsvalue.of_bytes input ] with
  | Ok (Jsvalue.Str s) -> s
  | Ok v -> failwith ("encode returned non-string: " ^ Jsvalue.to_string v)
  | Error e -> failwith ("js error: " ^ e)

let base64_program = lazy (Engine.compile base64_js_source)

let run_baseline ~clock ~input =
  let start = Cycles.Clock.now clock in
  let charge c = Cycles.Clock.advance_int clock (Engine.cycles c) in
  let engine = Engine.create ~charge () in
  (match Engine.run engine (Lazy.force base64_program) with
  | Ok _ -> ()
  | Error e -> failwith ("js error: " ^ e));
  let output = encode_with engine input in
  Engine.destroy engine;
  { latency_cycles = Cycles.Clock.elapsed_since clock start; output }

(* Figure 14 measures the engine, not the argument marshalling: the
   byte array reaches the function without a decode charge. *)
let run_virtine iso ~input =
  Isolate.run iso ~input
    ~decode:(fun ~charge:_ data -> Ok [ Jsvalue.of_bytes data ])
    ~encode:Jsvalue.to_string
