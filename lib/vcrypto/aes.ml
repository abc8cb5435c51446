(* Byte-oriented AES-128 per FIPS-197. The state is a 16-byte array in
   column-major order (state.(r + 4*c)). *)

let sbox = Array.make 256 0
let inv_sbox = Array.make 256 0

(* GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11B). *)
let xtime a = if a land 0x80 <> 0 then ((a lsl 1) lxor 0x1B) land 0xFF else (a lsl 1) land 0xFF

let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else begin
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go (xtime a) (b lsr 1) acc
    end
  in
  go a b 0

(* Build the S-box from the multiplicative inverse + affine transform,
   rather than hard-coding the table: self-checking construction. *)
let () =
  (* inverses via brute force (256^2 once at startup is fine) *)
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inv.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xFF in
  for a = 0 to 255 do
    let x = inv.(a) in
    let s = x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63 in
    sbox.(a) <- s;
    inv_sbox.(s) <- a
  done

type key_schedule = int array array
(* 11 round keys of 16 bytes *)

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1B; 0x36 |]

let expand_key key =
  if String.length key <> 16 then invalid_arg "Aes.expand_key: key must be 16 bytes";
  (* words as 4-byte int arrays *)
  let words = Array.make_matrix 44 4 0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      words.(i).(j) <- Char.code key.[(4 * i) + j]
    done
  done;
  for i = 4 to 43 do
    let temp = Array.copy words.(i - 1) in
    if i mod 4 = 0 then begin
      (* RotWord + SubWord + Rcon *)
      let t0 = temp.(0) in
      temp.(0) <- sbox.(temp.(1)) lxor rcon.((i / 4) - 1);
      temp.(1) <- sbox.(temp.(2));
      temp.(2) <- sbox.(temp.(3));
      temp.(3) <- sbox.(t0)
    end;
    for j = 0 to 3 do
      words.(i).(j) <- words.(i - 4).(j) lxor temp.(j)
    done
  done;
  Array.init 11 (fun round ->
      Array.init 16 (fun k -> words.((4 * round) + (k / 4)).(k mod 4)))

let add_round_key state rk = for i = 0 to 15 do state.(i) <- state.(i) lxor rk.(i) done

let sub_bytes state = for i = 0 to 15 do state.(i) <- sbox.(state.(i)) done
let inv_sub_bytes state = for i = 0 to 15 do state.(i) <- inv_sbox.(state.(i)) done

(* state layout: state.(r + 4*c)?? FIPS uses s[r][c] with input byte
   in[r + 4c]. We store s.(i) = in.(i), i.e. s.(r + 4c) is NOT the
   layout — we keep bytes in input order and index rows as i mod 4. *)
let shift_rows state =
  let copy = Array.copy state in
  (* row r (i mod 4 = r) shifts left by r columns; columns are i / 4 *)
  for c = 0 to 3 do
    for r = 0 to 3 do
      state.((4 * c) + r) <- copy.((4 * ((c + r) mod 4)) + r)
    done
  done

let inv_shift_rows state =
  let copy = Array.copy state in
  for c = 0 to 3 do
    for r = 0 to 3 do
      state.((4 * ((c + r) mod 4)) + r) <- copy.((4 * c) + r)
    done
  done

let mix_columns state =
  for c = 0 to 3 do
    let b = 4 * c in
    let a0 = state.(b) and a1 = state.(b + 1) and a2 = state.(b + 2) and a3 = state.(b + 3) in
    state.(b) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
    state.(b + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
    state.(b + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
    state.(b + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
  done

let inv_mix_columns state =
  for c = 0 to 3 do
    let b = 4 * c in
    let a0 = state.(b) and a1 = state.(b + 1) and a2 = state.(b + 2) and a3 = state.(b + 3) in
    state.(b) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
    state.(b + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
    state.(b + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
    state.(b + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
  done

let load_state src pos = Array.init 16 (fun i -> Char.code (Bytes.get src (pos + i)))

let store_state state =
  Bytes.init 16 (fun i -> Char.chr state.(i))

let encrypt_block ks src ~pos =
  let state = load_state src pos in
  add_round_key state ks.(0);
  for round = 1 to 9 do
    sub_bytes state;
    shift_rows state;
    mix_columns state;
    add_round_key state ks.(round)
  done;
  sub_bytes state;
  shift_rows state;
  add_round_key state ks.(10);
  store_state state

let decrypt_block ks src ~pos =
  let state = load_state src pos in
  add_round_key state ks.(10);
  inv_shift_rows state;
  inv_sub_bytes state;
  for round = 9 downto 1 do
    add_round_key state ks.(round);
    inv_mix_columns state;
    inv_shift_rows state;
    inv_sub_bytes state
  done;
  add_round_key state ks.(0);
  store_state state

let check_blocks name b =
  if Bytes.length b mod 16 <> 0 then
    invalid_arg (Printf.sprintf "Aes.%s: length must be a multiple of 16" name)

let xor16 dst src = for i = 0 to 15 do
    Bytes.set dst i (Char.chr (Char.code (Bytes.get dst i) lxor Char.code (Bytes.get src i)))
  done

let encrypt_cbc ks ~iv src =
  if Bytes.length iv <> 16 then invalid_arg "Aes.encrypt_cbc: iv must be 16 bytes";
  check_blocks "encrypt_cbc" src;
  let out = Bytes.create (Bytes.length src) in
  let prev = ref (Bytes.copy iv) in
  for blk = 0 to (Bytes.length src / 16) - 1 do
    let block = Bytes.sub src (16 * blk) 16 in
    xor16 block !prev;
    let enc = encrypt_block ks block ~pos:0 in
    Bytes.blit enc 0 out (16 * blk) 16;
    prev := enc
  done;
  out

let decrypt_cbc ks ~iv src =
  if Bytes.length iv <> 16 then invalid_arg "Aes.decrypt_cbc: iv must be 16 bytes";
  check_blocks "decrypt_cbc" src;
  let out = Bytes.create (Bytes.length src) in
  let prev = ref (Bytes.copy iv) in
  for blk = 0 to (Bytes.length src / 16) - 1 do
    let dec = decrypt_block ks src ~pos:(16 * blk) in
    xor16 dec !prev;
    Bytes.blit dec 0 out (16 * blk) 16;
    prev := Bytes.sub src (16 * blk) 16
  done;
  out

let pkcs7_pad b =
  let pad = 16 - (Bytes.length b mod 16) in
  let out = Bytes.create (Bytes.length b + pad) in
  Bytes.blit b 0 out 0 (Bytes.length b);
  Bytes.fill out (Bytes.length b) pad (Char.chr pad);
  out

let pkcs7_unpad b =
  let n = Bytes.length b in
  if n = 0 || n mod 16 <> 0 then None
  else begin
    let pad = Char.code (Bytes.get b (n - 1)) in
    if pad < 1 || pad > 16 then None
    else begin
      let ok = ref true in
      for i = n - pad to n - 1 do
        if Char.code (Bytes.get b i) <> pad then ok := false
      done;
      if !ok then Some (Bytes.sub b 0 (n - pad)) else None
    end
  end

let key_expansion_cycles = 1_100
