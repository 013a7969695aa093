(** The RTOS cycle ledger.

    The RTOS layer (allocator, switcher, scheduler) is modelled as
    privileged code operating on the simulated SRAM; its operations are
    charged cycles according to the core model, and every cycle in which
    the main pipeline does not use the data bus is granted to the
    background revoker engine (paper 3.3.3). *)

type t = {
  params : Cheriot_uarch.Core_model.params;
  mutable cycles : int;
  mutable hw_revoker : Cheriot_uarch.Revoker.t option;
}

let create params = { params; cycles = 0; hw_revoker = None }

let cycles t = t.cycles

let attach_revoker t r = t.hw_revoker <- Some r

(* [advance] without the optional argument, whose [Some] would allocate
   on every charge of the allocator's hot path. *)
let advance_busy t n mem_busy =
  if n > 0 then begin
    t.cycles <- t.cycles + n;
    match t.hw_revoker with
    | Some r -> Cheriot_uarch.Revoker.tick_n r (n - mem_busy)
    | None -> ()
  end

(** [advance t n ~mem_busy] passes [n] cycles of which [mem_busy] keep the
    data bus occupied; the rest feed the revoker. *)
let advance ?(mem_busy = 0) t n = advance_busy t n mem_busy

(** Charge an ALU/bookkeeping cost (no bus). *)
let compute t n = advance_busy t n 0

(** Charge [n] word-sized (32-bit) data accesses. *)
let word_ops t n = advance_busy t (n * (t.params.base + t.params.mem_extra)) n

(** Cycles to zero [bytes] of memory with a store loop (the switcher's
    stack clearing, the allocator's free-time zeroing).  One
    capability-width store per 8 bytes plus loop overhead. *)
let zero_cost t bytes =
  let granules = (bytes + 7) / 8 in
  let beats = 8 / t.params.bus_bytes in
  (granules * beats) + (granules / 4)

let charge_zero t bytes =
  let granules = (bytes + 7) / 8 in
  let beats = 8 / t.params.bus_bytes in
  advance_busy t (zero_cost t bytes) (granules * beats)
