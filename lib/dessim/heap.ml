type 'a entry = { at : int64; seq : int; value : 'a }

type 'a t = { mutable arr : 'a entry array; mutable size : int }

let create () = { arr = [||]; size = 0 }
let size h = h.size

let earlier a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let swap h i j =
  let tmp = h.arr.(i) in
  h.arr.(i) <- h.arr.(j);
  h.arr.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier h.arr.(i) h.arr.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && earlier h.arr.(l) h.arr.(!smallest) then smallest := l;
  if r < h.size && earlier h.arr.(r) h.arr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

(* The array starts empty and grows on a push, filled with the entry
   pushed: a polymorphic heap has no dummy of its own. *)
let push h e =
  if h.size = Array.length h.arr then begin
    let bigger = Array.make (max 16 (2 * h.size)) e in
    Array.blit h.arr 0 bigger 0 h.size;
    h.arr <- bigger
  end;
  h.arr.(h.size) <- e;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.arr.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.arr.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.arr.(0) <- h.arr.(h.size);
      sift_down h 0
    end;
    Some top
  end
