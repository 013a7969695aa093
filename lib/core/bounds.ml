type t = { e_field : int; b_field : int; t_field : int }

let decode_exp e_field = if e_field = 0xf then 24 else e_field
let exponent b = decode_exp b.e_field
let raw_fields { e_field; b_field; t_field } = (e_field, b_field, t_field)

let of_raw_fields ~e ~b ~t =
  { e_field = e land 0xf; b_field = b land 0x1ff; t_field = t land 0x1ff }

let mask32 = 0xFFFF_FFFF
let mask33 = 0x1_FFFF_FFFF

(* Fig. 3: insert B (resp. T) at bit e of the address, zero the low e
   bits, and correct the bits above by cb (resp. ct) when the address
   middle bits or the top field sit in a different 2^(9+e) region. *)
let decode { e_field; b_field; t_field } ~addr =
  let e = decode_exp e_field in
  let a_top = addr lsr (e + 9) in
  let a_mid = (addr lsr e) land 0x1ff in
  let cb = if a_mid < b_field then -1 else 0 in
  let ct = if t_field < b_field then cb + 1 else cb in
  let base = (((a_top + cb) lsl 9) lor b_field) lsl e in
  let top = (((a_top + ct) lsl 9) lor t_field) lsl e in
  (base land mask32, top land mask33)

(* Single-ended [decode] without the result pair, for callers that need
   only one end of the region (capability base/top accessors). *)
let base_of { e_field; b_field; t_field = _ } ~addr =
  let e = decode_exp e_field in
  let a_top = addr lsr (e + 9) in
  let a_mid = (addr lsr e) land 0x1ff in
  let cb = if a_mid < b_field then -1 else 0 in
  (((a_top + cb) lsl 9) lor b_field) lsl e land mask32

let top_of { e_field; b_field; t_field } ~addr =
  let e = decode_exp e_field in
  let a_top = addr lsr (e + 9) in
  let a_mid = (addr lsr e) land 0x1ff in
  let cb = if a_mid < b_field then -1 else 0 in
  let ct = if t_field < b_field then cb + 1 else cb in
  (((a_top + ct) lsl 9) lor t_field) lsl e land mask33

(* [decode] inlined without the tuple: these two run on every fetch,
   memory access and PC increment, so they must not allocate. *)
let in_bounds { e_field; b_field; t_field } ~addr ~access ~size =
  let e = decode_exp e_field in
  let a_top = addr lsr (e + 9) in
  let a_mid = (addr lsr e) land 0x1ff in
  let cb = if a_mid < b_field then -1 else 0 in
  let ct = if t_field < b_field then cb + 1 else cb in
  let base = (((a_top + cb) lsl 9) lor b_field) lsl e land mask32 in
  access >= base
  &&
  let top = (((a_top + ct) lsl 9) lor t_field) lsl e land mask33 in
  access + size <= top

let representable { e_field; b_field; t_field } ~cur ~addr =
  addr land mask32 = addr
  &&
  let e = decode_exp e_field in
  let at1 = cur lsr (e + 9) and at2 = addr lsr (e + 9) in
  let cb1 = if (cur lsr e) land 0x1ff < b_field then -1 else 0 in
  let cb2 = if (addr lsr e) land 0x1ff < b_field then -1 else 0 in
  (* Same 2^(9+e) region and same borrow: decodes are equal without
     computing them — the common case for a PC or pointer increment. *)
  (at1 = at2 && cb1 = cb2)
  ||
  let d = if t_field < b_field then 1 else 0 in
  (((at1 + cb1) lsl 9) lor b_field) lsl e land mask32
  = (((at2 + cb2) lsl 9) lor b_field) lsl e land mask32
  && (((at1 + cb1 + d) lsl 9) lor t_field) lsl e land mask33
     = (((at2 + cb2 + d) lsl 9) lor t_field) lsl e land mask33

(* [base] and [top] rounded out to a multiple of [2^e]. *)
let round_base ~base e = base land lnot ((1 lsl e) - 1)
let round_top ~base ~length e =
  (base + length + (1 lsl e) - 1) land lnot ((1 lsl e) - 1)

(* The smallest exponent whose rounding of [[base, base+length)] fits the
   9-bit fields, or -1.  Exponents 15..23 are not encodable (E = 0xf
   means 24), so the search jumps straight from 14 to 24. *)
let rec find_exponent ~base ~length e =
  if e > 24 then -1
  else if e > 14 && e < 24 then find_exponent ~base ~length 24
  else if round_top ~base ~length e - round_base ~base e <= 0x1ff lsl e then e
  else find_exponent ~base ~length (e + 1)

let set_bounds ~base ~length =
  if base < 0 || length < 0 || base + length > 0x1_0000_0000 then None
  else
    let e = find_exponent ~base ~length 0 in
    if e < 0 then None
    else
      let b' = round_base ~base e and t' = round_top ~base ~length e in
      let bounds =
        {
          e_field = (if e = 24 then 0xf else e);
          b_field = (b' lsr e) land 0x1ff;
          t_field = (t' lsr e) land 0x1ff;
        }
      in
      (* Defensive check that the fields decode back to the rounded
         region; this is an invariant of the search above. *)
      if base_of bounds ~addr:base = b' && top_of bounds ~addr:base = t' then
        Some (bounds, b', t')
      else None

let set_bounds_exact ~base ~length =
  match set_bounds ~base ~length with
  | Some (bounds, b', t') when b' = base && t' = base + length -> Some bounds
  | Some _ | None -> None

let rec crrl_from len e =
  if e > 24 then 0
  else if e > 14 && e < 24 then crrl_from len 24
  else
    let align = 1 lsl e in
    let rounded = (len + align - 1) land lnot (align - 1) in
    if rounded <= 0x1ff lsl e then rounded else crrl_from len (e + 1)

let crrl len = if len <= 511 then len else crrl_from len 0

let rec cram_exp len e =
  if e > 24 then 24
  else if e > 14 && e < 24 then cram_exp len 24
  else
    let align = 1 lsl e in
    let rounded = (len + align - 1) land lnot (align - 1) in
    if rounded <= 0x1ff lsl e then e else cram_exp len (e + 1)

let cram len =
  if len <= 511 then mask32 else lnot ((1 lsl cram_exp len 0) - 1) land mask32

let whole_address_space = { e_field = 0xf; b_field = 0; t_field = 0x100 }
let otype_space = { e_field = 0; b_field = 0; t_field = 8 }

let equal a b =
  a.e_field = b.e_field && a.b_field = b.b_field && a.t_field = b.t_field
