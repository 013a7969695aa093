open Cheriot_core
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Revoker = Cheriot_uarch.Revoker

type temporal = Baseline | Metadata | Software | Hardware

type error = Out_of_memory | Invalid_free of string | Double_free

let pp_error fmt = function
  | Out_of_memory -> Format.pp_print_string fmt "out of memory"
  | Invalid_free s -> Format.fprintf fmt "invalid free: %s" s
  | Double_free -> Format.pp_print_string fmt "double free"

type stats = {
  mallocs : int;
  frees : int;
  sweeps : int;
  sweep_cycles : int;
  quarantine_peak : int;
  live_bytes : int;
}

type qlist = { q_epoch : int; mutable q_chunks : int list; mutable q_bytes : int }

type t = {
  sram : Sram.t;
  rev : Revbits.t;
  clock : Clock.t;
  heap_base : int;
  heap_size : int;
  heap_root : Capability.t;
  temporal : temporal;
  quarantine_threshold : int;
  flute_poll_quirk : bool;
  (* Free lists: exact small bins for chunk sizes 16..512, then a single
     large list, newest first (first fit). *)
  small : int list array;
  mutable occupied : int;  (* bit i set iff [small.(i) <> []] *)
  mutable large : int list;
  mutable quarantine : qlist list;  (** newest first; bounded by the epoch rule *)
  mutable quarantine_bytes : int;
  mutable hw : Revoker.t option;
  mutable sw : Sw_revoker.t option;
  mutable mallocs : int;
  mutable frees : int;
  mutable sweeps : int;
  mutable sweep_cycles : int;
  mutable quarantine_peak : int;
  mutable live_bytes : int;
  mutable in_revoke : bool;
  mutable wait_ctx_pair : int;
      (* cycles of a context-switch pair charged while a thread blocks on
         the hardware revoker and is periodically re-scheduled to recheck
         the epoch; set by the scheduler layer (+4 cycles with the HWM
         CSRs — the 128 KiB anomaly of 7.2.2) *)
}

(* --- chunk header helpers --------------------------------------------- *)
(* Chunk layout: [size|flags : u32][bound_len : u32][data ...]
   flags: bit0 = in_use, bit1 = prev_in_use.
   Free chunks additionally carry a footer (last u32 = size) for backward
   coalescing, boundary-tag style. *)

let fl_in_use = 1
let fl_prev_in_use = 2
let min_chunk = 16

let read_head t chunk = Sram.read32 t.sram chunk
let size_of_head head = head land lnot 7
let chunk_size t chunk = size_of_head (read_head t chunk)
let prev_in_use t chunk = read_head t chunk land fl_prev_in_use <> 0

let write_head t chunk ~size ~used ~prev_used =
  Sram.write32 t.sram chunk
    (size lor (if used then fl_in_use else 0)
    lor (if prev_used then fl_prev_in_use else 0));
  Clock.word_ops t.clock 1

let write_bound_len t chunk v =
  Sram.write32 t.sram (chunk + 4) v;
  Clock.word_ops t.clock 1

let read_bound_len t chunk = Sram.read32 t.sram (chunk + 4)

let write_footer t chunk size =
  Sram.write32 t.sram (chunk + size - 4) size;
  Clock.word_ops t.clock 1

let read_prev_size t chunk = Sram.read32 t.sram (chunk - 4)
let heap_end t = t.heap_base + t.heap_size

(* [size] is the size just written to [chunk]'s header. *)
let set_prev_in_use_of_next t chunk size v =
  let n = chunk + size in
  if n < heap_end t then begin
    let head = read_head t n in
    let head = if v then head lor fl_prev_in_use else head land lnot fl_prev_in_use in
    Sram.write32 t.sram n head;
    Clock.word_ops t.clock 1
  end

(* --- bins -------------------------------------------------------------- *)

(* Small bins 0..62 hold chunk sizes 16..512, so [occupied] fits them in
   one OCaml int. *)
let bin_index size = if size <= 512 then (size / 8) - 2 else -1

let bin_push t chunk size =
  Clock.compute t.clock 3;
  match bin_index size with
  | -1 -> t.large <- chunk :: t.large
  | i ->
      t.small.(i) <- chunk :: t.small.(i);
      t.occupied <- t.occupied lor (1 lsl i)

(* A chunk sits in its bin exactly once ([check_invariants]), so removing
   the first match is removing every match; the rest keeps its order. *)
let rec remove_first (chunk : int) = function
  | [] -> []
  | c :: rest -> if c = chunk then rest else c :: remove_first chunk rest

let bin_remove t chunk size =
  Clock.compute t.clock 3;
  match bin_index size with
  | -1 -> t.large <- remove_first chunk t.large
  | i -> (
      match remove_first chunk t.small.(i) with
      | [] ->
          t.small.(i) <- [];
          t.occupied <- t.occupied land lnot (1 lsl i)
      | l -> t.small.(i) <- l)

(* --- create ------------------------------------------------------------ *)

let create ?(temporal = Software) ?quarantine_threshold
    ?(flute_poll_quirk = false) ~sram ~rev ~clock ~heap_base ~heap_size () =
  if heap_size land 7 <> 0 then invalid_arg "Allocator: heap_size";
  let heap_root =
    (* Heap memory must not be able to hold local capabilities: only
       stacks carry SL (2.6), so heap pointers are issued without it. *)
    Capability.(
      clear_perms
        (set_bounds (with_address root_mem_rw heap_base) ~length:heap_size
           ~exact:true)
        [ SL ])
  in
  assert heap_root.Capability.tag;
  let t =
    {
      sram;
      rev;
      clock;
      heap_base;
      heap_size;
      heap_root;
      temporal;
      quarantine_threshold =
        (match quarantine_threshold with Some q -> q | None -> heap_size / 2);
      flute_poll_quirk;
      small = Array.make 63 [];
      occupied = 0;
      large = [];
      quarantine = [];
      quarantine_bytes = 0;
      hw = None;
      sw = None;
      wait_ctx_pair = 0;
      mallocs = 0;
      frees = 0;
      sweeps = 0;
      sweep_cycles = 0;
      quarantine_peak = 0;
      live_bytes = 0;
      in_revoke = false;
    }
  in
  (* One initial free chunk spanning the heap. *)
  write_head t heap_base ~size:heap_size ~used:false ~prev_used:true;
  write_footer t heap_base heap_size;
  bin_push t heap_base heap_size;
  t

let attach_hw_revoker t r = t.hw <- Some r
let set_sw_revoker t r = t.sw <- Some r

let epoch t =
  match t.temporal with
  | Software -> (
      match t.sw with Some s -> Sw_revoker.epoch s | None -> 0)
  | Hardware -> (
      match t.hw with Some h -> Revoker.epoch h | None -> 0)
  | Baseline | Metadata -> 0

let stats t =
  {
    mallocs = t.mallocs;
    frees = t.frees;
    sweeps = t.sweeps;
    sweep_cycles = t.sweep_cycles;
    quarantine_peak = t.quarantine_peak;
    live_bytes = t.live_bytes;
  }

(* --- free-chunk insertion with coalescing ------------------------------ *)

(* Each chunk visited has its header read once: reads charge no cycles,
   so where they happen does not change the ledger. *)

let place_free t chunk size ~prev_used =
  write_head t chunk ~size ~used:false ~prev_used;
  write_footer t chunk size;
  set_prev_in_use_of_next t chunk size false;
  bin_push t chunk size

let insert_free t chunk size =
  (* Forward coalesce. *)
  let n = chunk + size in
  let size =
    if n < heap_end t then
      let nhead = read_head t n in
      if nhead land fl_in_use <> 0 then size
      else begin
        let nsize = size_of_head nhead in
        bin_remove t n nsize;
        Clock.word_ops t.clock 2;
        size + nsize
      end
    else size
  in
  (* Backward coalesce via the boundary tag.  Without it [chunk] is the
     heap's first chunk or its predecessor is in use. *)
  if chunk > t.heap_base && read_head t chunk land fl_prev_in_use = 0 then begin
    let psize = read_prev_size t chunk in
    Clock.word_ops t.clock 1;
    let p = chunk - psize in
    bin_remove t p psize;
    place_free t p (size + psize)
      ~prev_used:(p = t.heap_base || prev_in_use t p)
  end
  else place_free t chunk size ~prev_used:true

(* --- allocation --------------------------------------------------------- *)

let align_up v a = (v + a - 1) land lnot (a - 1)

(* Bounds and alignment the capability encoding demands (3.2.3). *)
let layout_of_request size =
  let size = Int.max 1 size in
  let bound_len = if size <= 511 then size else Bounds.crrl size in
  let mem_len = align_up (Int.max 8 bound_len) 8 in
  let mask = Bounds.cram size in
  let align = Int.max 8 ((lnot mask land 0xFFFF_FFFF) + 1) in
  (bound_len, mem_len, align)

(* The data address of a [mem_len]-byte object aligned to [align] in the
   [csize]-byte [chunk], or -1 if it does not fit. *)
let fit_data chunk csize mem_len align =
  let data = chunk + 8 in
  let adata = align_up data align in
  (* A nonzero lead must leave room for a minimal free chunk. *)
  let adata = if adata = data || adata - data >= min_chunk then adata
    else align_up (data + min_chunk) align
  in
  if adata + mem_len <= chunk + csize then adata else -1

let rec scan_list t mem_len align = function
  | [] -> -1
  | c :: rest ->
      Clock.compute t.clock 3;
      if fit_data c (chunk_size t c) mem_len align >= 0 then c
      else scan_list t mem_len align rest

(* Index of the lowest set bit of [m <> 0], by binary search. *)
let lowest_bit m =
  let i = if m land 0xFFFF_FFFF = 0 then 32 else 0 in
  let i = if (m lsr i) land 0xFFFF = 0 then i + 16 else i in
  let i = if (m lsr i) land 0xFF = 0 then i + 8 else i in
  let i = if (m lsr i) land 0xF = 0 then i + 4 else i in
  let i = if (m lsr i) land 0x3 = 0 then i + 2 else i in
  if (m lsr i) land 0x1 = 0 then i + 1 else i

(* [bins] masks [occupied] to the bins still to try; empty bins charge no
   cycles, so jumping over them is exact. *)
let rec scan_bins t mem_len align bins =
  if bins = 0 then scan_list t mem_len align t.large
  else
    let c = scan_list t mem_len align t.small.(lowest_bit bins) in
    if c >= 0 then c else scan_bins t mem_len align (bins land (bins - 1))

(* The first chunk, bins in size order then the large list, that fits;
   -1 if none does. *)
let find_fit t mem_len align =
  Clock.compute t.clock 4;
  let start = Int.max 0 (bin_index (Int.min 512 (mem_len + 8))) in
  scan_bins t mem_len align (t.occupied land (-1 lsl start))

let carve t chunk mem_len align bound_len =
  let head = read_head t chunk in
  let csize = size_of_head head in
  let prev_used = head land fl_prev_in_use <> 0 in
  let adata = fit_data chunk csize mem_len align in
  let cend = chunk + csize in
  bin_remove t chunk csize;
  let achunk = adata - 8 in
  (* Leading remainder becomes a free chunk. *)
  if achunk > chunk then begin
    let lead = achunk - chunk in
    write_head t chunk ~size:lead ~used:false ~prev_used;
    write_footer t chunk lead;
    bin_push t chunk lead
  end;
  let tail = cend - (adata + mem_len) in
  let asize = if tail >= min_chunk then mem_len + 8 else mem_len + 8 + tail in
  (* A carved lead chunk is free, so the allocation's prev_in_use is
     false; otherwise inherit the original chunk's flag. *)
  let aprev =
    if achunk > chunk then false else achunk = t.heap_base || prev_used
  in
  write_head t achunk ~size:asize ~used:true ~prev_used:aprev;
  write_bound_len t achunk bound_len;
  (* Trailing remainder. *)
  if tail >= min_chunk then begin
    let tchunk = achunk + asize in
    write_head t tchunk ~size:tail ~used:false ~prev_used:true;
    write_footer t tchunk tail;
    bin_push t tchunk tail
  end
  else set_prev_in_use_of_next t achunk asize true;
  achunk

(* --- revocation --------------------------------------------------------- *)

let eligible ~current q =
  let age = current - q.q_epoch in
  if q.q_epoch land 1 = 1 then age >= 3 else age >= 2

let release_quarantine t =
  let current = epoch t in
  let ready, waiting = List.partition (eligible ~current) t.quarantine in
  t.quarantine <- waiting;
  List.iter
    (fun q ->
      List.iter
        (fun chunk ->
          let size = chunk_size t chunk in
          (* Reset the revocation bits: memory is reusable again. *)
          Revbits.clear t.rev ~addr:(chunk + 8) ~len:(size - 8);
          Clock.word_ops t.clock (1 + ((size - 8) / 256));
          insert_free t chunk size;
          t.quarantine_bytes <- t.quarantine_bytes - size)
        q.q_chunks)
    ready

let hw_wait t h =
  (* Block until the engine's sweep completes.  The production core
     raises an interrupt; the Flute prototype must be polled, and each
     poll wakes the blocked thread for a flurry of memory accesses that
     preempt the engine's bus slots (7.2.2).  In both cases the blocked
     thread is periodically context-switched out and back in to recheck
     the epoch, which costs more when the HWM CSRs must be saved too.
     A sweep still running after 100M cycles can only mean the engine
     never gets a cycle, so that is an error, not a finished sweep. *)
  let guard = ref 0 in
  let iter = ref 0 in
  while Revoker.sweeping h && !guard < 100_000_000 do
    incr iter;
    if t.flute_poll_quirk then begin
      Clock.advance t.clock 400;
      (* poll flurry: scheduler wakes the thread, which re-checks the
         epoch — memory traffic that starves the engine *)
      t.clock.Clock.revoker_enabled <- false;
      Clock.advance t.clock 40 ~mem_busy:24;
      t.clock.Clock.revoker_enabled <- true;
      guard := !guard + 440
    end
    else begin
      Clock.advance t.clock 64;
      guard := !guard + 64
    end;
    if !iter mod 4 = 0 && t.wait_ctx_pair > 0 then begin
      Clock.advance t.clock t.wait_ctx_pair ~mem_busy:(t.wait_ctx_pair / 2);
      guard := !guard + t.wait_ctx_pair
    end
  done;
  if Revoker.sweeping h then
    failwith
      (Printf.sprintf
         "Allocator.hw_wait: revocation sweep did not finish within %d \
          cycles; the hardware revoker is starved or not attached to the \
          clock (Clock.attach_revoker)"
         !guard)

let revoke_now t =
  if not t.in_revoke then begin
    t.in_revoke <- true;
    let c0 = Clock.cycles t.clock in
    (* The sweep must cover every capability-bearing word, not just the
       heap: a dangling pointer to quarantined memory can sit in a
       compartment's globals, a stack frame or a register save area
       (3.3.2 sweeps "all memory" for exactly this reason).  Sweeping
       only [heap_base, heap_end) lets such a copy keep its tag,
       turning the post-revocation reuse of the chunk into a writable
       use-after-free against the allocator's own boundary tags. *)
    let start = Sram.base t.sram in
    let stop = start + Sram.size t.sram in
    (match t.temporal with
    | Baseline | Metadata -> ()
    | Software -> (
        match t.sw with
        | Some s ->
            Sw_revoker.sweep s ~start ~stop;
            t.sweeps <- t.sweeps + 1
        | None -> failwith "Allocator: no software revoker attached")
    | Hardware -> (
        match t.hw with
        | Some h ->
            Revoker.kick h ~start ~stop;
            Clock.compute t.clock 20;
            hw_wait t h;
            t.sweeps <- t.sweeps + 1
        | None -> failwith "Allocator: no hardware revoker attached"));
    t.sweep_cycles <- t.sweep_cycles + Clock.cycles t.clock - c0;
    release_quarantine t;
    t.in_revoke <- false
  end

(* --- malloc / free ------------------------------------------------------ *)

let make_cap t adata bound_len =
  Clock.compute t.clock 6;
  let c = Capability.with_address t.heap_root adata in
  let c = Capability.set_bounds c ~length:bound_len ~exact:true in
  assert c.Capability.tag;
  c

let rec malloc_inner t size retried =
  let bound_len, mem_len, align = layout_of_request size in
  let chunk = find_fit t mem_len align in
  if chunk >= 0 then begin
    let achunk = carve t chunk mem_len align bound_len in
    if t.temporal = Metadata then begin
      (* Metadata config reuses immediately; clear stale paint now. *)
      let dlen = chunk_size t achunk - 8 in
      Revbits.clear t.rev ~addr:(achunk + 8) ~len:dlen;
      Clock.word_ops t.clock (1 + (dlen / 256))
    end;
    t.mallocs <- t.mallocs + 1;
    t.live_bytes <- t.live_bytes + mem_len;
    Ok (make_cap t (achunk + 8) bound_len)
  end
  else if (not retried) && (t.temporal = Software || t.temporal = Hardware)
  then begin
    (* Low on memory: force a pass and retry (5.1). *)
    revoke_now t;
    malloc_inner t size true
  end
  else Error Out_of_memory

let malloc t size =
  Clock.compute t.clock 10;
  malloc_inner t size false

let validate_free t cap =
  if not cap.Capability.tag then Error (Invalid_free "untagged")
  else if Capability.is_sealed cap then Error (Invalid_free "sealed")
  else
    let base = Capability.base cap in
    if base < t.heap_base + 8 || base >= heap_end t then
      Error (Invalid_free "not a heap pointer")
    else if base land 7 <> 0 then Error (Invalid_free "misaligned")
    else if Revbits.is_revoked t.rev base then Error Double_free
    else
      let chunk = base - 8 in
      let head = read_head t chunk in
      Clock.word_ops t.clock 2;
      if head land fl_in_use = 0 then Error Double_free
      else if read_bound_len t chunk <> Capability.length cap then
        Error (Invalid_free "not the start of an allocation")
      else Ok chunk

let quarantine_push t chunk size =
  let e = epoch t in
  (match t.quarantine with
  | q :: _ when q.q_epoch = e ->
      q.q_chunks <- chunk :: q.q_chunks;
      q.q_bytes <- q.q_bytes + size
  | _ ->
      t.quarantine <-
        { q_epoch = e; q_chunks = [ chunk ]; q_bytes = size } :: t.quarantine);
  t.quarantine_bytes <- t.quarantine_bytes + size;
  t.quarantine_peak <- Int.max t.quarantine_peak t.quarantine_bytes

let free t cap =
  Clock.compute t.clock 8;
  match validate_free t cap with
  | Error e -> Error e
  | Ok chunk ->
      let size = chunk_size t chunk in
      let data = chunk + 8 and dlen = size - 8 in
      t.frees <- t.frees + 1;
      t.live_bytes <- t.live_bytes - dlen;
      (* Freed memory is always zeroed — secrets must not leak across the
         next allocation, whatever the temporal-safety configuration. *)
      Sram.fill t.sram ~addr:data ~len:dlen '\000';
      Clock.charge_zero t.clock dlen;
      (match t.temporal with
      | Baseline -> insert_free t chunk size
      | Metadata ->
          (* Paint, then return to the bins: measures the pure
             metadata-maintenance cost, no sweeps (7.2.2). *)
          Revbits.paint t.rev ~addr:data ~len:dlen;
          Clock.word_ops t.clock (1 + (dlen / 256));
          insert_free t chunk size
      | Software | Hardware ->
          Revbits.paint t.rev ~addr:data ~len:dlen;
          Clock.word_ops t.clock (1 + (dlen / 256));
          quarantine_push t chunk size;
          if t.quarantine_bytes >= t.quarantine_threshold then revoke_now t);
      Ok ()

(* --- introspection ------------------------------------------------------ *)

let check_invariants t =
  (* Quarantined chunks carry the in_use bit (they are not reusable), so
     distinguish them from live ones via the quarantine list. *)
  let quarantined =
    List.concat_map (fun q -> q.q_chunks) t.quarantine
  in
  let bin_of size = match bin_index size with -1 -> t.large | i -> t.small.(i) in
  (* [free] counts the free chunks walked so far. *)
  let rec walk chunk prev_used free =
    if chunk = heap_end t then Ok free
    else if chunk > heap_end t then Error "chunk chain overruns heap"
    else
      let head = read_head t chunk in
      let size = size_of_head head in
      if size < min_chunk then
        Error (Printf.sprintf "chunk 0x%x undersized (%d)" chunk size)
      else if (head land fl_prev_in_use <> 0) <> prev_used then
        Error (Printf.sprintf "chunk 0x%x: stale prev_in_use" chunk)
      else if head land fl_in_use <> 0 then
        if List.mem chunk quarantined then
          (* Quarantined chunks keep the in_use bit (not reusable), so
             the successor still sees prev_in_use. *)
          if Revbits.is_revoked t.rev (chunk + 8) then
            walk (chunk + size) true free
          else Error (Printf.sprintf "quarantined 0x%x not painted" chunk)
        else if
          t.temporal <> Metadata && Revbits.is_revoked t.rev (chunk + 8)
        then Error (Printf.sprintf "live chunk 0x%x painted" chunk)
        else walk (chunk + size) true free
      else if List.length (List.filter (Int.equal chunk) (bin_of size)) <> 1
      then
        Error
          (Printf.sprintf "free chunk 0x%x not exactly once in its bin" chunk)
      else if Sram.read32 t.sram (chunk + size - 4) <> size then
        Error (Printf.sprintf "free chunk 0x%x bad footer" chunk)
      else walk (chunk + size) false (free + 1)
  in
  let occupied = ref 0 in
  Array.iteri
    (fun i l -> if l <> [] then occupied := !occupied lor (1 lsl i))
    t.small;
  let binned =
    Array.fold_left (fun n l -> n + List.length l) (List.length t.large) t.small
  in
  match walk t.heap_base true 0 with
  | Error _ as e -> e
  | Ok free when free <> binned ->
      (* Each free chunk is once in its own bin, so any other entry is a
         duplicate, a misfiled chunk or one that is not free. *)
      Error (Printf.sprintf "%d free chunks but %d bin entries" free binned)
  | Ok _ when !occupied <> t.occupied ->
      Error "occupied mask disagrees with the small bins"
  | Ok _ -> Ok ()

let set_wait_ctx_pair t n = t.wait_ctx_pair <- n
