(* The disassembler's listing read back, as a reader of [vcc_cli
   disasm] sees it: one (address, byte count, text) per instruction or
   data byte of [blob] loaded at [origin]. *)

let is_hex_byte w =
  String.length w = 2
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) w

let of_blob ?(origin = 0x8000) blob =
  Disasm.of_program { Asm.code = blob; origin; entry = origin; symbols = [] }
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         (* "  %06x: <hex bytes>  <text>" *)
         match String.index_opt line ':' with
         | Some 8 ->
             let addr = int_of_string ("0x" ^ String.trim (String.sub line 0 8)) in
             let words =
               List.filter (( <> ) "")
                 (String.split_on_char ' ' (String.sub line 9 (String.length line - 9)))
             in
             let rec split n = function
               | w :: ws when is_hex_byte w -> split (n + 1) ws
               | ws -> (n, String.concat " " ws)
             in
             let size, text = split 0 words in
             Some (addr, size, text)
         | Some _ | None -> None)

(* Data lines are the bytes the sweep could not decode. *)
let is_data (_, _, text) = String.length text >= 6 && String.sub text 0 6 = ".byte "
