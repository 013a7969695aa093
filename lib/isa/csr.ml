(** CSR numbers.

    Standard machine-mode CSRs plus the two custom CSRs added for the
    stack high-water-mark mechanism (paper 5.2.1), which are protected by
    the PCC SR permission and accessible only to the switcher. *)

let mstatus = 0x300
let mcause = 0x342
let mtval = 0x343
let mcycle = 0xB00
let minstret = 0xB02
let mcycleh = 0xB80

(* Custom CHERIoT CSRs. *)
let mshwm = 0x7C1
(** Stack high water mark: lowest stack address stored to. *)

let mshwmb = 0x7C2
(** Stack base: lower limit of the current thread's stack. *)

let mtimecmp = 0x7D0
(** Timer compare; a machine timer interrupt is pending while
    [mcycle >= mtimecmp] and [mtimecmp <> 0].  (Modelled as a CSR rather
    than MMIO to keep the preemption path deterministic and simple.) *)

(* mstatus bits *)
let mstatus_mie_bit = 3
let mstatus_mpie_bit = 7
