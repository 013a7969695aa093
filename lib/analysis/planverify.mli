(** Plan-soundness verifier: translation validation for the jit
    check-plan optimizer (DESIGN.md §14).

    [verify] statically proves one compiled check plan equivalent to
    the all-[Chk_full] plan — dominance of every weakened check, guard
    soundness (including derivation-hop coverage for non-entry register
    versions), and deferral safety — or returns a concrete symbolic
    counterexample under a [plan-*] rule id from
    {!Rules.plan_catalogue}.

    Three wirings: {!collect} + {!verify_plan} power the offline
    [cheriot_audit plans] gate; {!install} turns on compile-time
    validation inside [Dispatch_jit] (reject-to-full, counted in
    [jit_plans_rejected]); and the property suites call {!verify}
    directly on plans compiled from random programs. *)

type counterexample = {
  cx_rule : string;  (** a {!Rules.plan_catalogue} id *)
  cx_index : int;  (** op index within the block (= instruction index) *)
  cx_detail : string;  (** the symbolic witness *)
}

type verdict = Sound | Unsound of counterexample

val observable : Cheriot_isa.Insn.t -> bool
(** Ops whose PCC/minstret/event epilogue is architecturally observable
    before the next sync point — the complement of what the executor
    may defer.  Re-derived independently of [Ir.deferrable] as a
    wildcard-free match, so a new instruction forces an explicit
    decision here even if the optimizer's default quietly covers it. *)

val verify :
  cheri:bool ->
  ?defer:bool array ->
  Cheriot_isa.Insn.t array ->
  Cheriot_isa.Ir.chk array ->
  Cheriot_isa.Ir.guard array ->
  verdict
(** [verify ~cheri insns chks guards] proves the plan sound for the
    block, or refutes it at the first unjustified check.  [defer]
    (default: [Ir.deferrable] per op, the executor's actual classes)
    exists so the seeded-mutant suite can verify mutated deferral
    decisions. *)

val verify_block :
  Cheriot_isa.Machine.bentry ->
  Cheriot_isa.Ir.chk array ->
  Cheriot_isa.Ir.guard array ->
  verdict
(** [verify] applied to a translated machine block (the mode decides
    [cheri]). *)

val machine_validator :
  Cheriot_isa.Machine.bentry ->
  Cheriot_isa.Ir.chk array ->
  Cheriot_isa.Ir.guard array ->
  bool
(** The {!verify_block} verdict as a [Machine.t.jit_validator]. *)

val install : Cheriot_isa.Machine.t -> unit
(** Enable compile-time plan validation on a machine: every plan the
    jit tier compiles from now on is verified before installation;
    unsound plans are replaced by the all-full plan and counted in
    [jit_plans_rejected]. *)

type plan = {
  p_block : Cheriot_isa.Machine.bentry;
  p_chks : Cheriot_isa.Ir.chk array;
  p_guards : Cheriot_isa.Ir.guard array;
}

val collect : ?fuel:int -> Cheriot_isa.Machine.t -> plan list
(** Run the machine under [Dispatch_jit] (default 2M fuel) and return
    every plan compiled along the way — captured at compile time through
    the validator hook, so cache evictions lose nothing — deduplicated
    by (start address, instruction array).  Blocks the run left
    uncompiled in the translation cache (a superblock installed over a
    block not re-entered before the run ends) are force-compiled
    afterwards.  Restores any previously installed validator. *)

val verify_plan : plan -> verdict

val finding_of :
  compartment:string -> plan -> counterexample -> Rules.finding
(** Render a counterexample as an audit finding pinned to the offending
    instruction's address. *)
