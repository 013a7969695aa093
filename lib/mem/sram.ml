type t = {
  base : int;
  size : int;
  data : Bytes.t;
  (* Two micro-tag bits per 8-byte granule: bit 2k = low half, bit 2k+1 =
     high half.  Packed 4 granules per byte. *)
  microtags : Bytes.t;
}

let create ~base ~size =
  if size <= 0 || size mod 8 <> 0 then
    invalid_arg "Sram.create: size must be a positive multiple of 8";
  {
    base;
    size;
    data = Bytes.make size '\000';
    microtags = Bytes.make (((size / 8 * 2) + 7) / 8) '\000';
  }

let base t = t.base
let size t = t.size
let in_range t ~addr ~size = addr >= t.base && addr + size <= t.base + t.size

let check t addr size align =
  if not (in_range t ~addr ~size) then
    invalid_arg (Printf.sprintf "Sram: 0x%x out of range" addr);
  if addr land (align - 1) <> 0 then
    invalid_arg (Printf.sprintf "Sram: 0x%x misaligned (%d)" addr align)

let microtag_get t bit =
  Char.code (Bytes.get t.microtags (bit lsr 3)) land (1 lsl (bit land 7)) <> 0

let microtag_set t bit v =
  let byte = Char.code (Bytes.get t.microtags (bit lsr 3)) in
  let mask = 1 lsl (bit land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.microtags (bit lsr 3) (Char.chr byte)

(* granule index of an address *)
let granule t addr = (addr - t.base) lsr 3

(* Architectural tag of granule [g]: both of its micro-tags. *)
let granule_tagged t g =
  (Char.code (Bytes.get t.microtags (g lsr 2)) lsr ((g land 3) * 2)) land 3 = 3

(* Keep only the [keep] bits of micro-tag byte [b]. *)
let mask_microtag_byte t b keep =
  Bytes.set t.microtags b
    (Char.unsafe_chr (Char.code (Bytes.get t.microtags b) land keep))

let clear_microtags_for_write t addr len =
  (* Any data write clears the micro-tag of each 32-bit half it touches:
     halves [first, last], i.e. masked updates of the edge bytes [b0] and
     [b1] and a fill of the whole bytes between them (none for the
     emulator's stores, which touch one or two halves). *)
  let first = (addr - t.base) lsr 2 in
  let last = (addr + len - 1 - t.base) lsr 2 in
  let b0 = first lsr 3 and b1 = last lsr 3 in
  let below_first = (1 lsl (first land 7)) - 1 in
  let above_last = 0xff land lnot ((2 lsl (last land 7)) - 1) in
  if b0 = b1 then mask_microtag_byte t b0 (below_first lor above_last)
  else begin
    mask_microtag_byte t b0 below_first;
    Bytes.fill t.microtags (b0 + 1) (b1 - b0 - 1) '\000';
    mask_microtag_byte t b1 above_last
  end

(* Unchecked variants for the machine's resolved-window fast path: the
   caller has already proved the access in range and aligned (the window
   containment test subsumes [check]), so these go straight to the byte
   buffer.  Writes still clear micro-tags — that part is architectural,
   not a check. *)

let read8_u t addr = Char.code (Bytes.unsafe_get t.data (addr - t.base))
let read16_u t addr = Bytes.get_uint16_le t.data (addr - t.base)

let read32_u t addr =
  Int32.to_int (Bytes.get_int32_le t.data (addr - t.base)) land 0xFFFF_FFFF

let write8_u t addr v =
  Bytes.unsafe_set t.data (addr - t.base) (Char.unsafe_chr (v land 0xff));
  clear_microtags_for_write t addr 1

let write16_u t addr v =
  Bytes.set_uint16_le t.data (addr - t.base) (v land 0xffff);
  clear_microtags_for_write t addr 2

let write32_u t addr v =
  Bytes.set_int32_le t.data (addr - t.base) (Int32.of_int v);
  clear_microtags_for_write t addr 4

let read8 t addr =
  check t addr 1 1;
  Char.code (Bytes.get t.data (addr - t.base))

let read16 t addr =
  check t addr 2 2;
  Bytes.get_uint16_le t.data (addr - t.base)

let read32 t addr =
  check t addr 4 4;
  Int32.to_int (Bytes.get_int32_le t.data (addr - t.base)) land 0xFFFF_FFFF

let write8 t addr v =
  check t addr 1 1;
  Bytes.set t.data (addr - t.base) (Char.chr (v land 0xff));
  clear_microtags_for_write t addr 1

let write16 t addr v =
  check t addr 2 2;
  Bytes.set_uint16_le t.data (addr - t.base) (v land 0xffff);
  clear_microtags_for_write t addr 2

let write32 t addr v =
  check t addr 4 4;
  Bytes.set_int32_le t.data (addr - t.base) (Int32.of_int v);
  clear_microtags_for_write t addr 4

let read_cap t addr =
  check t addr 8 8;
  let g = granule t addr in
  let tag = microtag_get t (2 * g) && microtag_get t ((2 * g) + 1) in
  (tag, Bytes.get_int64_le t.data (addr - t.base))

let write_cap t addr (tag, word) =
  check t addr 8 8;
  Bytes.set_int64_le t.data (addr - t.base) word;
  let g = granule t addr in
  microtag_set t (2 * g) tag;
  microtag_set t ((2 * g) + 1) tag

let read_microtags t addr =
  let g = granule t (addr land lnot 7) in
  (microtag_get t (2 * g), microtag_get t ((2 * g) + 1))

let tag_at t addr = granule_tagged t (granule t (addr land lnot 7))

let next_tagged t ~addr ~limit =
  if addr < t.base || limit > t.base + t.size then
    invalid_arg
      (Printf.sprintf "Sram.next_tagged: 0x%x-0x%x out of range" addr limit);
  (* granules [g, gl) start below [limit]; a micro-tag byte holds four
     granules, and [b land (b lsr 1) land 0x55 = 0] says none of them
     has both micro-tags set *)
  let gl = (limit - t.base + 7) lsr 3 in
  let rec scan g =
    if g >= gl then limit
    else if g land 3 = 0 && g + 4 <= gl then
      let b = Char.code (Bytes.get t.microtags (g lsr 2)) in
      if b land (b lsr 1) land 0x55 = 0 then scan (g + 4) else one g
    else one g
  and one g =
    if granule_tagged t g then t.base + (g lsl 3) else scan (g + 1)
  in
  scan (granule t addr)

let fill t ~addr ~len c =
  if len > 0 then begin
    check t addr len 1;
    Bytes.fill t.data (addr - t.base) len c;
    clear_microtags_for_write t addr len
  end

let digest t =
  Digest.string
    (Printf.sprintf "%x:%x:" t.base t.size
    ^ Digest.bytes t.data ^ Digest.bytes t.microtags)

let blit_string t ~addr s =
  let len = String.length s in
  if len > 0 then begin
    check t addr len 1;
    Bytes.blit_string s 0 t.data (addr - t.base) len;
    clear_microtags_for_write t addr len
  end
