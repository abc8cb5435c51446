exception Fault of { addr : int; size : int }

let page_size = 4096
let page_shift = 12
let page_mask = page_size - 1

(* ------------------------------------------------------------------ *)
(* Pages                                                               *)
(* ------------------------------------------------------------------ *)

(* A shared page is immutable once published: every reference holds the
   same buffer and writes go through copy-on-write, so [s_data] is never
   mutated after interning. [s_key] is its content digest. *)
type shared = { s_data : bytes; s_key : string }

type page =
  | Zero                  (* canonical zero page, never materialized *)
  | Shared of shared      (* immutable, content-addressed, read-only *)
  | Owned of bytes        (* private, writable *)

(* Read-only view of the canonical zero page. Never written: every write
   path materializes an Owned page first. *)
let zero_data = Bytes.make page_size '\000'

let bytes_all_zero b pos len =
  (* 8-byte strides; [Bytes.get_int64_le] accepts unaligned offsets *)
  let stop = pos + len in
  let rec words i =
    if i + 8 > stop then tail i
    else Bytes.get_int64_le b i = 0L && words (i + 8)
  and tail i = i >= stop || (Bytes.unsafe_get b i = '\000' && tail (i + 1)) in
  words pos

let is_zero_page b = bytes_all_zero b 0 page_size

(* ------------------------------------------------------------------ *)
(* Content-addressed page cache                                        *)
(* ------------------------------------------------------------------ *)

module Page_cache = struct
  (* One process-wide table: pages are deduped across every memory,
     snapshot key and pool shell. Eviction (FIFO beyond [capacity]) only
     loses future dedup opportunities — existing references keep their
     buffer alive, so correctness never depends on residency. *)

  let table : (string, shared) Hashtbl.t = Hashtbl.create 512
  let order : string Queue.t = Queue.create ()
  let capacity = 8192
  let n_entries = ref 0
  let n_hits = ref 0
  let n_misses = ref 0

  let entries () = !n_entries
  let bytes () = !n_entries * page_size
  let hits () = !n_hits
  let misses () = !n_misses

  let reset () =
    Hashtbl.reset table;
    Queue.clear order;
    n_entries := 0;
    n_hits := 0;
    n_misses := 0

  (* Intern takes ownership of [b]: the caller's slot becomes a Shared
     reference, so the buffer is never mutated afterwards. *)
  let intern b =
    let key = Digest.bytes b in
    match Hashtbl.find_opt table key with
    | Some sh when String.equal sh.s_key key && Bytes.equal sh.s_data b ->
        incr n_hits;
        sh
    | Some _ ->
        (* digest collision: keep the page private rather than alias it *)
        { s_data = b; s_key = key }
    | None ->
        incr n_misses;
        let sh = { s_data = b; s_key = key } in
        if !n_entries >= capacity then begin
          match Queue.take_opt order with
          | Some victim when Hashtbl.mem table victim ->
              Hashtbl.remove table victim;
              decr n_entries
          | Some _ | None -> ()
        end;
        Hashtbl.replace table key sh;
        Queue.push key order;
        incr n_entries;
        sh
end

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* A fresh block per memory and per [reset_zero]: compared with [==]. *)
type tag = unit ref

type t = {
  size : int;
  npages : int;
  pages : page array;
  stamps : int array;       (* page p is dirty iff stamps.(p) = gen *)
  mutable gen : int;
  vers : int array;         (* monotonic per-page content version (see below) *)
  code_lo : int array;      (* [code_lo.(p), code_hi.(p)): bytes of page p *)
  code_hi : int array;      (* holding translated code; empty when lo >= hi *)
  mutable tag : tag;
  mutable spare : bytes list;  (* dropped Owned buffers, stale, for reuse *)
  mutable n_spare : int;
  mutable cow_faults : int;
  mutable zero_fills : int;
  mutable fault_hook : (shared:bool -> page:int -> unit) option;
}

let create ~size =
  let npages = (size + page_mask) / page_size in
  {
    size;
    npages;
    pages = Array.make npages Zero;
    stamps = Array.make npages 0;
    gen = 1;
    vers = Array.make npages 0;
    code_lo = Array.make npages max_int;
    code_hi = Array.make npages 0;
    tag = ref ();
    spare = [];
    n_spare = 0;
    cow_faults = 0;
    zero_fills = 0;
    fault_hook = None;
  }

let size t = t.size
let tag t = t.tag

let set_fault_hook t h = t.fault_hook <- h

(* Overflow-safe: [addr + n] wraps for guest addresses near [max_int],
   which would let the check pass and surface a host [Invalid_argument]
   from [Bytes] instead of a guest {!Fault}. Compare against
   [t.size - n] instead, which cannot overflow once signs are known. *)
let check t addr n =
  if addr < 0 || n < 0 || addr > t.size - n then raise (Fault { addr; size = n })

let mark t addr n =
  let stop = addr + n in
  let first = addr lsr page_shift and last = (stop - 1) lsr page_shift in
  for p = first to last do
    Array.unsafe_set t.stamps p t.gen;
    (* content version: consumed by the translation cache to invalidate
       superblocks decoded from this page, so it moves only when the
       write overlaps the page's translated bytes — data stored beside
       code keeps its blocks. Unlike the dirty stamps it survives
       [clear_dirty]: cleaning the dirty set does not change contents.
       An empty extent (max_int, 0) fails both compares. *)
    if addr < Array.unsafe_get t.code_hi p && Array.unsafe_get t.code_lo p < stop then
      Array.unsafe_set t.vers p (Array.unsafe_get t.vers p + 1)
  done

let dirty_pages t =
  let acc = ref [] in
  for p = t.npages - 1 downto 0 do
    if Array.unsafe_get t.stamps p = t.gen then acc := p :: !acc
  done;
  !acc

let dirty_count t =
  let n = ref 0 in
  for p = 0 to t.npages - 1 do
    if Array.unsafe_get t.stamps p = t.gen then incr n
  done;
  !n

(* The dirty bitmap is derived state: bumping the generation invalidates
   every stamp at once, O(1). *)
let clear_dirty t = t.gen <- t.gen + 1

let page_version t p = Array.unsafe_get t.vers p

let note_code t ~off ~len =
  check t off len;
  if len > 0 then
    let stop = off + len in
    for p = off lsr page_shift to (stop - 1) lsr page_shift do
      let base = p lsl page_shift in
      t.code_lo.(p) <- min t.code_lo.(p) (max off base);
      t.code_hi.(p) <- max t.code_hi.(p) (min stop (base + page_size))
    done

let page_ro t p =
  match Array.unsafe_get t.pages p with
  | Zero -> zero_data
  | Shared s -> s.s_data
  | Owned b -> b

(* The spare list is the one source and sink of private page buffers. A
   4 KB buffer is too big for the minor heap, so each fresh one is a
   direct major-heap allocation that paces major GC. [take] hands out a
   kept buffer, or a fresh one only when none is kept; its bytes are
   stale and the caller overwrites all of them. [set] installs a page
   and keeps the Owned buffer it replaces. A buffer is in at most one
   slot or on the list, and a fresh one is made only with the list
   empty, so resident + spare <= npages. *)
let take t =
  match t.spare with
  | b :: rest ->
      t.spare <- rest;
      t.n_spare <- t.n_spare - 1;
      b
  | [] -> Bytes.create page_size

let set t p pg =
  (match Array.unsafe_get t.pages p with
  | Owned b ->
      t.spare <- b :: t.spare;
      t.n_spare <- t.n_spare + 1
  | Zero | Shared _ -> ());
  Array.unsafe_set t.pages p pg

(* First store to a non-Owned page: demand-zero fill or CoW break. The
   fault hook (installed by the simulated KVM) charges the EPT-violation
   cost for shared pages; zero fills are free so cold-path timings are
   unchanged by the paged representation. *)
let page_rw t p =
  match Array.unsafe_get t.pages p with
  | Owned b -> b
  | Zero ->
      let b = take t in
      Bytes.unsafe_fill b 0 page_size '\000';
      t.pages.(p) <- Owned b;
      t.zero_fills <- t.zero_fills + 1;
      (match t.fault_hook with Some h -> h ~shared:false ~page:p | None -> ());
      b
  | Shared s ->
      let b = take t in
      Bytes.blit s.s_data 0 b 0 page_size;
      t.pages.(p) <- Owned b;
      t.cow_faults <- t.cow_faults + 1;
      (match t.fault_hook with Some h -> h ~shared:true ~page:p | None -> ());
      b

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get (page_ro t (addr lsr page_shift)) (addr land page_mask))

let read_u16 t addr =
  check t addr 2;
  let off = addr land page_mask in
  if off <= page_size - 2 then begin
    let pg = page_ro t (addr lsr page_shift) in
    Char.code (Bytes.unsafe_get pg off)
    lor (Char.code (Bytes.unsafe_get pg (off + 1)) lsl 8)
  end
  else read_u8 t addr lor (read_u8 t (addr + 1) lsl 8)

let read_u32 t addr =
  check t addr 4;
  let off = addr land page_mask in
  if off <= page_size - 4 then begin
    let pg = page_ro t (addr lsr page_shift) in
    let b i = Char.code (Bytes.unsafe_get pg (off + i)) in
    b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  end
  else begin
    let b i = read_u8 t (addr + i) in
    b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  end

(* Inlined into [read_u64] and [load64_into], so the word reaches a
   register file unboxed. *)
let[@inline] read64 t addr =
  check t addr 8;
  let off = addr land page_mask in
  if off <= page_size - 8 then Bytes.get_int64_le (page_ro t (addr lsr page_shift)) off
  else
    Int64.logor
      (Int64.of_int (read_u32 t addr))
      (Int64.shift_left (Int64.of_int (read_u32 t (addr + 4))) 32)

let read_u64 t addr = read64 t addr

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let load64_into t addr (dst : words) i = Bigarray.Array1.set dst i (read64 t addr)

let write_u8 t addr v =
  check t addr 1;
  mark t addr 1;
  Bytes.unsafe_set (page_rw t (addr lsr page_shift)) (addr land page_mask)
    (Char.unsafe_chr (v land 0xFF))

let write_u16 t addr v =
  check t addr 2;
  mark t addr 2;
  let off = addr land page_mask in
  if off <= page_size - 2 then begin
    let pg = page_rw t (addr lsr page_shift) in
    Bytes.unsafe_set pg off (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set pg (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))
  end
  else begin
    write_u8 t addr (v land 0xFF);
    write_u8 t (addr + 1) ((v lsr 8) land 0xFF)
  end

let write_u32 t addr v =
  check t addr 4;
  mark t addr 4;
  let off = addr land page_mask in
  if off <= page_size - 4 then begin
    let pg = page_rw t (addr lsr page_shift) in
    for i = 0 to 3 do
      Bytes.unsafe_set pg (off + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
    done
  end
  else
    for i = 0 to 3 do
      write_u8 t (addr + i) ((v lsr (8 * i)) land 0xFF)
    done

let[@inline] write64 t addr v =
  check t addr 8;
  mark t addr 8;
  let off = addr land page_mask in
  if off <= page_size - 8 then Bytes.set_int64_le (page_rw t (addr lsr page_shift)) off v
  else
    for i = 0 to 7 do
      write_u8 t (addr + i)
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
    done

let write_u64 t addr v = write64 t addr v

let store_from t addr n (src : words) i =
  let w = Bigarray.Array1.get src i in
  match n with
  | 8 -> write64 t addr w
  | 4 -> write_u32 t addr (Int64.to_int w land 0xFFFFFFFF)
  | 2 -> write_u16 t addr (Int64.to_int w land 0xFFFF)
  | _ -> write_u8 t addr (Int64.to_int w land 0xFF)

(* A store no observer can see: all [n] bytes in one Owned page of the
   memory, clear of that page's code extent. It cannot fault, the fault
   hook runs only for Zero and Shared pages, and [mark] would move no
   version (an empty extent (max_int, 0) passes the first test), so the
   store is the write and the dirty stamp alone. Anything else touches
   nothing. *)
let try_store t addr n (src : words) i =
  let p = addr lsr page_shift and off = addr land page_mask in
  addr >= 0 && addr <= t.size - n && off <= page_size - n
  && (Array.unsafe_get t.code_hi p <= addr || addr + n <= Array.unsafe_get t.code_lo p)
  &&
  match Array.unsafe_get t.pages p with
  | Owned b ->
      Array.unsafe_set t.stamps p t.gen;
      let w = Bigarray.Array1.unsafe_get src i in
      (match n with
      | 8 -> Bytes.set_int64_le b off w
      | 4 -> Bytes.set_int32_le b off (Int64.to_int32 w)
      | 2 -> Bytes.set_uint16_le b off (Int64.to_int w)
      | _ -> Bytes.unsafe_set b off (Char.unsafe_chr (Int64.to_int w land 0xFF)));
      true
  | Zero | Shared _ -> false

let read_bytes t ~off ~len =
  check t off len;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let addr = off + !pos in
    let in_page = addr land page_mask in
    let chunk = min (page_size - in_page) (len - !pos) in
    Bytes.blit (page_ro t (addr lsr page_shift)) in_page out !pos chunk;
    pos := !pos + chunk
  done;
  out

let write_bytes t ~off b =
  let len = Bytes.length b in
  check t off len;
  if len > 0 then begin
    mark t off len;
    let pos = ref 0 in
    while !pos < len do
      let addr = off + !pos in
      let in_page = addr land page_mask in
      let chunk = min (page_size - in_page) (len - !pos) in
      (* an all-zero chunk landing on a Zero page needs no store: large
         zero-padded images stay non-resident *)
      (match Array.unsafe_get t.pages (addr lsr page_shift) with
      | Zero when bytes_all_zero b !pos chunk -> ()
      | Zero | Shared _ | Owned _ ->
          Bytes.blit b !pos (page_rw t (addr lsr page_shift)) in_page chunk);
      pos := !pos + chunk
    done
  end

(* Native-endian and unchecked: the loops below keep every word inside
   both buffers, and equality does not depend on byte order. *)
external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Compares in place, page by page, eight bytes at a time and then the
   tail byte by byte: no buffer is allocated. *)
let equal_bytes t ~off b =
  let len = Bytes.length b in
  check t off len;
  let i = ref 0 and same = ref true in
  while !same && !i < len do
    let addr = off + !i in
    let pg = page_ro t (addr lsr page_shift) in
    (* byte [j] of [b] sits at [shift + j] of this page *)
    let shift = (addr land page_mask) - !i in
    let stop = min len (!i + page_size - (addr land page_mask)) in
    while !same && !i <= stop - 8 do
      if get64 pg (shift + !i) = get64 b !i then i := !i + 8 else same := false
    done;
    while !same && !i < stop do
      if Bytes.unsafe_get pg (shift + !i) = Bytes.unsafe_get b !i then incr i else same := false
    done
  done;
  !same

let read_cstring t ~off ~max =
  check t off 0;
  let rec find i =
    if i >= max then raise (Fault { addr = off + i; size = 1 })
    else if read_u8 t (off + i) = 0 then i
    else find (i + 1)
  in
  let len = find 0 in
  Bytes.to_string (read_bytes t ~off ~len)

(* Pool cleaning: drop every reference and start a fresh generation —
   the simulated cost model still charges the memset this stands for.
   Private buffers are kept for later fills and breaks. Only pages
   holding translated code need a version bump, and then hold none:
   their extents empty. The new tag tells a version reader that the
   memory it validated against is gone. *)
let reset_zero t =
  for p = 0 to t.npages - 1 do
    set t p Zero;
    if t.code_lo.(p) < t.code_hi.(p) then begin
      t.vers.(p) <- t.vers.(p) + 1;
      t.code_lo.(p) <- max_int;
      t.code_hi.(p) <- 0
    end
  done;
  t.tag <- ref ();
  clear_dirty t

(* Publish page [p]: normalize all-zero Owned pages back to Zero, intern
   the rest. After this the slot is read-only until the next write
   faults it private again. The cache takes the buffer only when it
   interns it; after a zero page or a dedup hit it is kept. *)
let share_page t p =
  match t.pages.(p) with
  | Zero -> Zero
  | Shared _ as pg -> pg
  | Owned b ->
      let pg = if is_zero_page b then Zero else Shared (Page_cache.intern b) in
      (match pg with
      | Shared s when s.s_data == b -> t.pages.(p) <- pg
      | Shared _ | Zero | Owned _ -> set t p pg);
      pg

let snapshot t =
  let out = Bytes.create t.size in
  for p = 0 to t.npages - 1 do
    let off = p * page_size in
    Bytes.blit (page_ro t p) 0 out off (min page_size (t.size - off))
  done;
  out

(* ------------------------------------------------------------------ *)
(* Page images (snapshot capture/restore)                              *)
(* ------------------------------------------------------------------ *)

type image = { i_pages : page array; i_footprint : int }

let page_is_zero_ref = function Zero -> true | Shared _ | Owned _ -> false

let capture t =
  (* publishing every page also dedupes the live memory itself: repeated
     captures of the same state are reference grabs, not copies *)
  let shared = Array.init t.npages (fun p -> share_page t p) in
  let rec last_page p = if p < 0 then -1 else if page_is_zero_ref shared.(p) then last_page (p - 1) else p in
  let lp = last_page (t.npages - 1) in
  let footprint =
    if lp < 0 then 0
    else begin
      let pg =
        match shared.(lp) with Shared s -> s.s_data | Owned b -> b | Zero -> assert false
      in
      let limit = min page_size (t.size - (lp * page_size)) in
      let rec last_byte i =
        if i < 0 then lp * page_size
        else if Bytes.unsafe_get pg i <> '\000' then (lp * page_size) + i + 1
        else last_byte (i - 1)
      in
      last_byte (limit - 1)
    end
  in
  let keep = (footprint + page_mask) lsr page_shift in
  { i_pages = Array.sub shared 0 keep; i_footprint = footprint }

let image_footprint img = img.i_footprint

let image_resident_pages img =
  Array.fold_left (fun n pg -> if page_is_zero_ref pg then n else n + 1) 0 img.i_pages

(* [eager] materializes private copies up front (the paper's memcpy
   restore: later stores never fault), into the slot's own buffer when
   it has one; the default installs shared references and lets stores
   CoW lazily. *)
let restore_image ?(eager = false) t img =
  let keep = Array.length img.i_pages in
  if keep > t.npages || img.i_footprint > t.size then
    invalid_arg "Memory.restore_image: image exceeds memory";
  for p = 0 to t.npages - 1 do
    match if p < keep then img.i_pages.(p) else Zero with
    | (Shared { s_data = src; _ } | Owned src) when eager ->
        let b = match t.pages.(p) with Owned b -> b | Zero | Shared _ -> take t in
        Bytes.blit src 0 b 0 page_size;
        t.pages.(p) <- Owned b
    | pg -> set t p pg
  done;
  if t.size > 0 then mark t 0 t.size;
  img.i_footprint

let restore_image_cow t img =
  let keep = Array.length img.i_pages in
  if keep > t.npages || img.i_footprint > t.size then
    invalid_arg "Memory.restore_image_cow: image exceeds memory";
  let pages = ref 0 and bytes = ref 0 in
  for p = 0 to t.npages - 1 do
    if Array.unsafe_get t.stamps p = t.gen then begin
      set t p (if p < keep then img.i_pages.(p) else Zero);
      (* this path replaces page contents without going through [mark];
         bump the content version so stale superblocks are dropped *)
      Array.unsafe_set t.vers p (Array.unsafe_get t.vers p + 1);
      incr pages;
      bytes := !bytes + min page_size (t.size - (p * page_size))
    end
  done;
  (!pages, !bytes)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

type page_stats = {
  total_pages : int;
  resident_pages : int;
  shared_pages : int;
  zero_pages : int;
  spare_pages : int;
  cow_faults : int;
  zero_fills : int;
}

let page_stats t =
  let resident = ref 0 and shared = ref 0 and zero = ref 0 in
  for p = 0 to t.npages - 1 do
    match Array.unsafe_get t.pages p with
    | Zero -> incr zero
    | Shared _ -> incr shared
    | Owned _ -> incr resident
  done;
  {
    total_pages = t.npages;
    resident_pages = !resident;
    shared_pages = !shared;
    zero_pages = !zero;
    spare_pages = t.n_spare;
    cow_faults = t.cow_faults;
    zero_fills = t.zero_fills;
  }
