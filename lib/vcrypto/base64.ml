let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let encode s =
  let n = String.length s in
  let out = Buffer.create ((n + 2) / 3 * 4) in
  let i = ref 0 in
  while !i + 2 < n do
    let b0 = Char.code s.[!i] and b1 = Char.code s.[!i + 1] and b2 = Char.code s.[!i + 2] in
    Buffer.add_char out alphabet.[b0 lsr 2];
    Buffer.add_char out alphabet.[((b0 land 3) lsl 4) lor (b1 lsr 4)];
    Buffer.add_char out alphabet.[((b1 land 15) lsl 2) lor (b2 lsr 6)];
    Buffer.add_char out alphabet.[b2 land 63];
    i := !i + 3
  done;
  (match n - !i with
  | 1 ->
      let b0 = Char.code s.[!i] in
      Buffer.add_char out alphabet.[b0 lsr 2];
      Buffer.add_char out alphabet.[(b0 land 3) lsl 4];
      Buffer.add_string out "=="
  | 2 ->
      let b0 = Char.code s.[!i] and b1 = Char.code s.[!i + 1] in
      Buffer.add_char out alphabet.[b0 lsr 2];
      Buffer.add_char out alphabet.[((b0 land 3) lsl 4) lor (b1 lsr 4)];
      Buffer.add_char out alphabet.[(b1 land 15) lsl 2];
      Buffer.add_char out '='
  | _ -> ());
  Buffer.contents out

let value_of_char c =
  if c >= 'A' && c <= 'Z' then Some (Char.code c - 65)
  else if c >= 'a' && c <= 'z' then Some (Char.code c - 97 + 26)
  else if c >= '0' && c <= '9' then Some (Char.code c - 48 + 52)
  else if c = '+' then Some 62
  else if c = '/' then Some 63
  else None

let decode s =
  let n = String.length s in
  if n mod 4 <> 0 then None
  else begin
    let out = Buffer.create (n / 4 * 3) in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      let quad = String.sub s !i 4 in
      let pad =
        if quad.[3] = '=' then if quad.[2] = '=' then 2 else 1 else 0
      in
      (* '=' is only legal at the very end *)
      if pad > 0 && !i + 4 <> n then ok := false
      else begin
        let vals =
          List.filter_map value_of_char
            (List.init (4 - pad) (fun k -> quad.[k]))
        in
        if List.length vals <> 4 - pad then ok := false
        else begin
          match vals with
          | [ a; b; c; d ] ->
              let word = (a lsl 18) lor (b lsl 12) lor (c lsl 6) lor d in
              Buffer.add_char out (Char.chr (word lsr 16));
              Buffer.add_char out (Char.chr ((word lsr 8) land 0xFF));
              Buffer.add_char out (Char.chr (word land 0xFF))
          | [ a; b; c ] ->
              let word = (a lsl 18) lor (b lsl 12) lor (c lsl 6) in
              Buffer.add_char out (Char.chr (word lsr 16));
              Buffer.add_char out (Char.chr ((word lsr 8) land 0xFF))
          | [ a; b ] ->
              let word = (a lsl 18) lor (b lsl 12) in
              Buffer.add_char out (Char.chr (word lsr 16))
          | _ -> ok := false
        end
      end;
      i := !i + 4
    done;
    if !ok then Some (Buffer.contents out) else None
  end
