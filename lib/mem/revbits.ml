type t = {
  heap_base : int;
  heap_size : int;
  granule_log2 : int;
  bits : Bytes.t;
  mutable painted : int;
}

let create ?(granule_log2 = 3) ~heap_base ~heap_size () =
  if granule_log2 < 3 then
    invalid_arg "Revbits.create: granule must be >= 8 bytes";
  let granules = (heap_size + (1 lsl granule_log2) - 1) lsr granule_log2 in
  {
    heap_base;
    heap_size;
    granule_log2;
    bits = Bytes.make ((granules + 7) / 8) '\000';
    painted = 0;
  }

let granule_size t = 1 lsl t.granule_log2
let covers t addr = addr >= t.heap_base && addr < t.heap_base + t.heap_size
let index t addr = (addr - t.heap_base) lsr t.granule_log2

let get t i =
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let popcount8 x =
  let x = x - ((x lsr 1) land 0x55) in
  let x = (x land 0x33) + ((x lsr 2) land 0x33) in
  (x + (x lsr 4)) land 0x0f

(* Set bits [first, last] to [v] a bitmap byte at a time, keeping
   [painted] exact by each byte's change in popcount. *)
let set_range t first last v =
  for b = first lsr 3 to last lsr 3 do
    let lo = if b = first lsr 3 then first land 7 else 0 in
    let hi = if b = last lsr 3 then last land 7 else 7 in
    let mask = ((2 lsl hi) - 1) land lnot ((1 lsl lo) - 1) in
    let old = Char.code (Bytes.get t.bits b) in
    let byte = if v then old lor mask else old land lnot mask in
    t.painted <- t.painted + popcount8 byte - popcount8 old;
    Bytes.set t.bits b (Char.chr byte)
  done

let is_revoked t addr = covers t addr && get t (index t addr)

let set_granules t ~addr ~len v =
  if len > 0 then begin
    let lo = Int.max addr t.heap_base in
    let last_addr = Int.min (addr + len - 1) (t.heap_base + t.heap_size - 1) in
    if last_addr >= lo then
      set_range t (index t lo) (index t last_addr) v
  end

let paint t ~addr ~len = set_granules t ~addr ~len true
let clear t ~addr ~len = set_granules t ~addr ~len false
let bitmap_bytes t = Bytes.length t.bits
let painted_granules t = t.painted
