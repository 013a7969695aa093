type device = {
  name : string;
  dev_base : int;
  dev_size : int;
  read32 : int -> int;
  write32 : int -> int -> unit;
}

let ram_backed ~name ~base ~size =
  let backing = Bytes.make size '\000' in
  let read32 off =
    Int32.to_int (Bytes.get_int32_le backing off) land 0xFFFF_FFFF
  in
  let write32 off v = Bytes.set_int32_le backing off (Int32.of_int v) in
  ({ name; dev_base = base; dev_size = size; read32; write32 }, backing)
