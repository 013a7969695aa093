(** The RTOS cycle ledger: charges deterministic cycle costs for
    RTOS-level operations (allocator, switcher, scheduler) according to
    the core model, and grants every cycle the main pipeline leaves the
    data bus idle to the background revoker engine (paper 3.3.3). *)

type t = {
  params : Cheriot_uarch.Core_model.params;
  mutable cycles : int;
  mutable hw_revoker : Cheriot_uarch.Revoker.t option;
}

val create : Cheriot_uarch.Core_model.params -> t
val cycles : t -> int
val attach_revoker : t -> Cheriot_uarch.Revoker.t -> unit

val advance : ?mem_busy:int -> t -> int -> unit
(** [advance t n ~mem_busy] passes [n] cycles, of which [mem_busy] keep
    the data bus occupied; the remainder feed the revoker. *)

val compute : t -> int -> unit
(** Charge ALU/bookkeeping cycles (bus idle throughout). *)

val word_ops : t -> int -> unit
(** Charge [n] 32-bit data accesses. *)

val zero_cost : t -> int -> int
(** Cycles a store loop needs to zero [bytes] of memory. *)

val charge_zero : t -> int -> unit
(** Charge {!zero_cost} for [bytes] (the switcher's stack clearing and
    the allocator's free-time zeroing). *)
