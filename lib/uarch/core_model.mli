(** Cycle-level core models (paper 4).

    Two design points are modelled:

    - {b Flute}: a five-stage single-issue in-order pipeline with a 65-bit
      (64 + tag) memory bus.  Capability loads/stores take a single bus
      beat, and the load filter's revocation-bit lookup is hidden in the
      MEM→WB stages (Fig. 4), costing no extra cycles.
    - {b Ibex}: a small 2/3-stage core optimized for area with a 33-bit
      data bus: a capability transfer takes two bus beats, and the load
      filter's extra load-to-use delay is visible (paper 7.2.1).

    The model charges cycles per retired instruction from the
    {!Cheriot_isa.Machine.event} the ISA emulator reports.  All costs are
    deterministic — the real-time requirement of 2.1. *)

type core = Flute | Ibex

type params = {
  base : int;  (** cycles for a simple ALU instruction *)
  mul : int;
  div : int;
  taken_branch_penalty : int;  (** extra cycles on a taken branch *)
  jump_penalty : int;
  trap_penalty : int;  (** pipeline flush on trap/interrupt entry *)
  mem_extra : int;  (** extra cycles for a data load/store beyond base *)
  bus_bytes : int;  (** data-bus width: 8 (Flute) or 4 (Ibex) *)
  load_filter_extra : int;
      (** extra load-to-use cycles on a capability load when the load
          filter is enabled (0 on Flute, 1 on Ibex) *)
}

val params_of : core -> params
val name : core -> string

(** A full machine configuration of Table 3 / Table 4. *)
type config = {
  core : core;
  cheri : bool;  (** capability mode vs RV32E baseline *)
  load_filter : bool;
  hw_revoker : bool;
  stack_hwm : bool;  (** stack high-water-mark assist (5.2.1) *)
}

val config : ?cheri:bool -> ?load_filter:bool -> ?hw_revoker:bool ->
  ?stack_hwm:bool -> core -> config
val config_name : config -> string

val cycles_of_event : params -> load_filter:bool ->
  Cheriot_isa.Machine.event -> int
(** Cycles charged for one retired instruction (or trap entry). *)
