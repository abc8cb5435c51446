type backend = Native | Virtine of Wasp.Runtime.t

type t = {
  backend : backend;
  ks : Aes.key_schedule;
  key : string;
  snapshot_key : string;
}

(* native (host, AES-NI-class) cost both backends charge for the
   cipher arithmetic itself *)
let aes_ni_cycles_per_byte = 1.3

let image_size = 21 * 1024
(* the paper's OpenSSL virtine image: cipher code + newlib + key state *)

let native_cycles ~len = int_of_float (float_of_int len *. aes_ni_cycles_per_byte)

let counter = ref 0

let create backend ~key =
  incr counter;
  {
    backend;
    ks = Aes.expand_key key;
    key;
    snapshot_key = Printf.sprintf "evp-aes-%d" !counter;
  }

type Wasp.Univ.t += Cipher_state of Aes.key_schedule

let encrypt_virtine t w ~iv data =
  let padded = Aes.pkcs7_pad data in
  let policy =
    Wasp.Policy.of_list [ Wasp.Hc.snapshot; Wasp.Hc.get_data; Wasp.Hc.return_data ]
  in
  let result =
    Wasp.Runtime.run_native w ~name:"aes-cbc" ~mem_size:(128 * 1024) ~policy
      ~input:padded ~snapshot_key:t.snapshot_key
      ~body:(fun ctx ~restored ->
        let ks =
          match restored with
          | Some (Cipher_state ks) -> ks
          | Some _ | None ->
              (* first run: the image (cipher code + libc) occupies its
                 footprint and the key schedule is expanded before the
                 snapshot is taken *)
              let image_addr = Wasp.Runtime.Native_ctx.alloc ctx image_size in
              let mem = Wasp.Runtime.Native_ctx.mem ctx in
              (* the image bytes are code, not zeroes: make the footprint
                 real so the snapshot captures it *)
              for i = 0 to (image_size / 512) - 1 do
                Vm.Memory.write_u8 mem (image_addr + (i * 512)) 0x90
              done;
              Wasp.Runtime.Native_ctx.charge ctx Aes.key_expansion_cycles;
              Wasp.Runtime.Native_ctx.offer_snapshot_state ctx (fun () ->
                  Cipher_state (Aes.expand_key t.key));
              ignore (Wasp.Runtime.Native_ctx.hypercall ctx Wasp.Hc.snapshot [||]);
              t.ks
        in
        (* pull the plaintext into guest memory *)
        let buf = Wasp.Runtime.Native_ctx.alloc ctx (Bytes.length padded) in
        let n =
          Wasp.Runtime.Native_ctx.hypercall ctx Wasp.Hc.get_data
            [| Int64.of_int buf; Int64.of_int (Bytes.length padded) |]
        in
        let n = Int64.to_int n in
        let mem = Wasp.Runtime.Native_ctx.mem ctx in
        let plain = Vm.Memory.read_bytes mem ~off:buf ~len:n in
        (* the cipher arithmetic, charged at AES-NI-class cost *)
        Wasp.Runtime.Native_ctx.charge ctx (native_cycles ~len:n);
        let cipher = Aes.encrypt_cbc ks ~iv plain in
        Vm.Memory.write_bytes mem ~off:buf cipher;
        Wasp.Runtime.Native_ctx.hypercall ctx Wasp.Hc.return_data
          [| Int64.of_int buf; Int64.of_int (Bytes.length cipher) |])
      ()
  in
  match result.Wasp.Runtime.output with
  | Some out -> out
  | None -> failwith "Evp.encrypt: virtine produced no output"

let encrypt t ~iv data =
  match t.backend with
  | Native ->
      let padded = Aes.pkcs7_pad data in
      Aes.encrypt_cbc t.ks ~iv padded
  | Virtine w -> encrypt_virtine t w ~iv data
