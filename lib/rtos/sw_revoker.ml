(** The software revoker (paper 3.3.2).

    Sweeping revocation in software is a simple loop that loads each
    capability word and stores it back: the load filter strips tags of
    capabilities whose base lies in freed memory, so the store-back
    completes the invalidation.  The loop body must be atomic with respect
    to capability loads elsewhere, so the revoker disables interrupts for
    each batch; the sweep as a whole is preemptable between batches,
    keeping the system real-time (2.1).

    The loop is unrolled by two to hide the one-cycle load-to-use delay.
    On Ibex every capability word costs four bus accesses (7.2.2). *)

module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits

type t = {
  sram : Sram.t;
  rev : Revbits.t;
  clock : Clock.t;
  batch_granules : int;  (** granules swept per interrupts-disabled batch *)
  mutable epoch : int;
  mutable invalidated : int;
  mutable sweeps : int;
}

let create ?(batch_granules = 128) ~sram ~rev ~clock () =
  { sram; rev; clock; batch_granules; epoch = 0; invalidated = 0; sweeps = 0 }

let epoch t = t.epoch
let invalidated t = t.invalidated
let sweeps t = t.sweeps

(* Cost of sweeping one pair of capability words (the unrolled loop
   body): two loads and two stores plus loop bookkeeping. *)
let pair_cost params =
  let open Cheriot_uarch.Core_model in
  let beats = 8 / params.bus_bytes in
  let access = params.base + params.mem_extra + beats - 1 in
  (4 * access) + 1

let sweep_granule t addr =
  if Sram.tag_at t.sram addr then begin
    let tag, word = Sram.read_cap t.sram addr in
    let c = Cheriot_core.Capability.of_word ~tag word in
    if Revbits.is_revoked t.rev (Cheriot_core.Capability.base c) then begin
      (* The store-back writes the tag-stripped value. *)
      Sram.write_cap t.sram addr (false, word);
      t.invalidated <- t.invalidated + 1
    end
  end

(** Sweep [\[start, stop)], batched; [on_batch_end] runs between batches
    with interrupts conceptually re-enabled (the scheduler may preempt
    there). *)
let sweep ?(on_batch_end = fun () -> ()) t ~start ~stop =
  t.epoch <- t.epoch + 1;
  t.sweeps <- t.sweeps + 1;
  let cost = pair_cost t.clock.Clock.params in
  let pos = ref (start land lnot 7) in
  while !pos < stop do
    let batch_end = Int.min stop (!pos + (t.batch_granules * 8)) in
    let granules = (batch_end - !pos) / 8 in
    (* Untagged granules load and store back unchanged: skip their runs
       (the batch's cycle charge below still counts them). *)
    while !pos < batch_end do
      pos := Sram.next_tagged t.sram ~addr:!pos ~limit:batch_end;
      if !pos < batch_end then begin
        sweep_granule t !pos;
        pos := !pos + 8
      end
    done;
    (* Two granules per unrolled iteration. *)
    Clock.advance t.clock
      (((granules + 1) / 2) * cost)
      ~mem_busy:(granules * 2 * (8 / t.clock.Clock.params.bus_bytes));
    on_batch_end ()
  done;
  t.epoch <- t.epoch + 1
