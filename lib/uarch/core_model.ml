type core = Flute | Ibex

type params = {
  base : int;
  mul : int;
  div : int;
  taken_branch_penalty : int;
  jump_penalty : int;
  trap_penalty : int;
  mem_extra : int;
  bus_bytes : int;
  load_filter_extra : int;
}

(* The constants reflect the two design points: Flute hides memory and
   filter latency in its longer pipeline but pays more for redirects;
   Ibex has cheap branches but a narrow bus and a visible filter delay. *)
let params_of = function
  | Flute ->
      {
        base = 1;
        mul = 1;
        div = 17;
        taken_branch_penalty = 3;
        jump_penalty = 3;
        trap_penalty = 5;
        mem_extra = 0;
        bus_bytes = 8;
        load_filter_extra = 0;
      }
  | Ibex ->
      {
        base = 1;
        mul = 3;
        div = 37;
        taken_branch_penalty = 1;
        jump_penalty = 1;
        trap_penalty = 3;
        mem_extra = 1;
        bus_bytes = 4;
        load_filter_extra = 1;
      }

let name = function Flute -> "Flute" | Ibex -> "Ibex"

type config = {
  core : core;
  cheri : bool;
  load_filter : bool;
  hw_revoker : bool;
  stack_hwm : bool;
}

let config ?(cheri = true) ?(load_filter = true) ?(hw_revoker = false)
    ?(stack_hwm = false) core =
  { core; cheri; load_filter; hw_revoker; stack_hwm }

let config_name c =
  Printf.sprintf "%s/%s%s%s%s" (name c.core)
    (if c.cheri then "CHERIoT" else "RV32E")
    (if c.cheri && c.load_filter then "+filter" else "")
    (if c.hw_revoker then "+hwrev" else "")
    (if c.stack_hwm then "+hwm" else "")

(* Bus beats needed for an access of [bytes] on a [bus_bytes]-wide bus. *)
let beats ~bus_bytes bytes = (bytes + bus_bytes - 1) / bus_bytes

let cycles_of_event p ~load_filter (ev : Cheriot_isa.Machine.event) =
  match ev.ev_trap with
  | Some _ -> p.trap_penalty
  | None -> (
      match ev.ev_insn with
      | None -> p.base
      | Some insn -> (
          match Cheriot_isa.Insn.classify insn with
          | K_alu | K_cap_alu -> p.base
          | K_mul -> p.mul
          | K_div -> p.div
          | K_branch ->
              p.base + if ev.ev_taken_branch then p.taken_branch_penalty else 0
          | K_jump -> p.base + p.jump_penalty
          | K_system -> p.base
          | K_load b | K_store b ->
              p.base + p.mem_extra + (beats ~bus_bytes:p.bus_bytes b - 1)
          | K_cap_store ->
              p.base + p.mem_extra + (beats ~bus_bytes:p.bus_bytes 8 - 1)
          | K_cap_load ->
              p.base + p.mem_extra
              + (beats ~bus_bytes:p.bus_bytes 8 - 1)
              + if load_filter then p.load_filter_extra else 0))
