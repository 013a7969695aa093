(** The performance harness: runs the ISA emulator under a cycle model,
    advancing [mcycle], feeding idle memory cycles to the background
    revoker, and collecting statistics. *)

type stats = {
  cycles : int;
  instructions : int;
  mem_busy : int;  (** cycles the data bus was busy with CPU traffic *)
  traps : int;
}

val cpi : stats -> float
val pp_stats : Format.formatter -> stats -> unit

type t = {
  machine : Cheriot_isa.Machine.t;
  params : Core_model.params;
  revoker : Revoker.t option;
  dispatch : Cheriot_isa.Machine.dispatch;
  mutable stats : stats;
}

val create : ?revoker:Revoker.t -> ?dispatch:Cheriot_isa.Machine.dispatch ->
  params:Core_model.params -> Cheriot_isa.Machine.t -> t
(** [dispatch] picks the path that drives the machine (default
    [Dispatch_ref]).  A block-tier round goes through
    [Cheriot_isa.Machine.step_round], and every retired instruction is
    charged from its retirement ring.  The block tiers fall back to
    per-step cached dispatch whenever interrupts are enabled with the
    timer armed, where a mid-block [mcycle] comparator crossing could
    otherwise be observable.  All five produce identical architectural
    traces and cycle counts — simulator-speed optimizations, invisible
    to the modelled hardware. *)

val step : t -> Cheriot_isa.Machine.result
(** One round of the configured dispatch path (one instruction on the
    reference and cached paths): charges the cycles of every retired
    instruction and grants the revoker the idle memory slots of those
    cycles. *)

val run : ?fuel:int -> t -> Cheriot_isa.Machine.result
(** Run until halt / double fault / WFI-with-no-interrupt-source, or
    [fuel] instructions (default 50M). *)

val idle_until : t -> (unit -> bool) -> int
(** Model an idle CPU (e.g. blocked on revocation): burn cycles — all of
    them available to the revoker — until the condition holds; returns
    the cycles spent.  Gives up after 100M cycles. *)
