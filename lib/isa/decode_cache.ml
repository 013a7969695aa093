type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  flushes : int;
}

type 'a t = {
  tags : int array;  (* full PC of the cached word; -1 = empty *)
  payloads : 'a array;
  mask : int;
  dummy : 'a;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable flushes : int;
}

let create ~dummy () =
  let n = 2048 in
  {
    tags = Array.make n (-1);
    payloads = Array.make n dummy;
    mask = n - 1;
    dummy;
    hits = 0;
    misses = 0;
    invalidations = 0;
    flushes = 0;
  }

(* Instructions are word-aligned, so the low two PC bits carry no
   information: index by pc >> 2 for conflict-free coverage of contiguous
   code. *)
let slot t pc = (pc lsr 2) land t.mask

(* [slot] is masked, so every index below is in range by construction and
   the bounds checks are elided. *)
let fill t ~slot ~pc v =
  Array.unsafe_set t.tags slot pc;
  Array.unsafe_set t.payloads slot v

let kill t pc =
  let s = slot t pc in
  if t.tags.(s) = pc then begin
    t.tags.(s) <- -1;
    t.payloads.(s) <- t.dummy;
    t.invalidations <- t.invalidations + 1
  end

(* The bus snoop reports 8-byte-granule-aligned store addresses; a
   granule holds two instruction words. *)
let invalidate_granule t addr =
  let g = addr land lnot 7 in
  kill t g;
  kill t (g + 4)

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.payloads 0 (Array.length t.payloads) t.dummy;
  t.flushes <- t.flushes + 1

(* --- ranged entries: the basic-block layer ---------------------------- *)

type 'a ranged = {
  rc : 'a t;
  (* per-slot byte span [lo, hi) covered by the entry's instructions;
     his.(s) = 0 marks an empty slot *)
  los : int array;
  his : int array;
  max_span : int;
  (* Union of every span ever filled (monotone until flush): the store
     snoop tests against this window first, so data-region stores — the
     overwhelming majority — cost two compares and never probe. *)
  mutable span_lo : int;
  mutable span_hi : int;
  (* Chain epoch: every direct block-to-block link records the epoch at
     link time and is only followed while it still matches.  Any event
     that could stale a translation somewhere — a store-kill, a flush,
     a superblock replacing an entry — bumps the epoch, unlinking every
     edge in the cache in O(1). *)
  mutable chain_epoch : int;
}

let ranged ~max_span ~dummy () =
  if max_span <= 0 || max_span land 3 <> 0 then
    invalid_arg "Decode_cache.ranged: max_span must be a positive word multiple";
  let rc = create ~dummy () in
  {
    rc;
    los = Array.make (Array.length rc.tags) 0;
    his = Array.make (Array.length rc.tags) 0;
    max_span;
    span_lo = max_int;
    span_hi = 0;
    chain_epoch = 0;
  }

let chain_epoch t = t.chain_epoch
let bump_chain_epoch t = t.chain_epoch <- t.chain_epoch + 1

let rfill t ~slot ~pc ~lo ~hi v =
  if hi - lo > t.max_span then invalid_arg "Decode_cache.rfill: span too long";
  fill t.rc ~slot ~pc v;
  t.los.(slot) <- lo;
  t.his.(slot) <- hi;
  if lo < t.span_lo then t.span_lo <- lo;
  if hi > t.span_hi then t.span_hi <- hi

let rkill t slot =
  if t.rc.tags.(slot) >= 0 then begin
    t.rc.tags.(slot) <- -1;
    t.rc.payloads.(slot) <- t.rc.dummy;
    t.his.(slot) <- 0;
    t.rc.invalidations <- t.rc.invalidations + 1;
    (* The dead entry may be the target of chained links elsewhere in
       the cache; unlink them all before the next transfer. *)
    t.chain_epoch <- t.chain_epoch + 1
  end

(* A store granule [g, g+8) can only intersect entries whose start PC
   lies in [g + 4 - max_span, g + 4]: an overlapping entry has
   lo < g + 8 (so lo <= g + 4, word-aligned) and lo + max_span >= hi > g
   (so lo >= g + 4 - max_span).  That is at most max_span/4 + 1
   candidate starts, each a masked probe; entries are word-granular, so
   the candidate walk covers every possible overlap. *)
let rkill_store t addr =
  let g = addr land lnot 7 in
  if g + 8 > t.span_lo && g < t.span_hi then begin
    let first = g + 4 - t.max_span and last = g + 4 in
    let pc = ref (if first < 0 then 0 else first) in
    while !pc <= last do
      let s = slot t.rc !pc in
      if
        Array.unsafe_get t.rc.tags s = !pc
        && Array.unsafe_get t.los s < g + 8
        && Array.unsafe_get t.his s > g
      then rkill t s;
      pc := !pc + 4
    done
  end

let rflush t =
  flush t.rc;
  Array.fill t.his 0 (Array.length t.his) 0;
  t.span_lo <- max_int;
  t.span_hi <- 0;
  t.chain_epoch <- t.chain_epoch + 1

let stats t : stats =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    flushes = t.flushes;
  }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.invalidations <- 0;
  t.flushes <- 0
