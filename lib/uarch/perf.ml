module Machine = Cheriot_isa.Machine

type stats = {
  cycles : int;
  instructions : int;
  traps : int;
}

type t = {
  machine : Machine.t;
  params : Core_model.params;
  dispatch : Machine.dispatch;
  mutable stats : stats;
}

let zero_stats = { cycles = 0; instructions = 0; traps = 0 }

let create ?(dispatch = Machine.Dispatch_ref) ~params machine =
  { machine; params; dispatch; stats = zero_stats }

let charge t ev =
  let cycles =
    Core_model.cycles_of_event t.params
      ~load_filter:t.machine.Machine.load_filter ev
  in
  t.machine.Machine.mcycle <- t.machine.Machine.mcycle + cycles;
  t.stats <-
    {
      cycles = t.stats.cycles + cycles;
      instructions =
        (t.stats.instructions + match ev.Machine.ev_insn with Some _ -> 1 | None -> 0);
      traps =
        (t.stats.traps + match ev.Machine.ev_trap with Some _ -> 1 | None -> 0);
    }

(* WFI idle: one cycle passes. *)
let idle_cycle t =
  t.machine.Machine.mcycle <- t.machine.Machine.mcycle + 1;
  t.stats <- { t.stats with cycles = t.stats.cycles + 1 }

let step t =
  let m = t.machine in
  match t.dispatch with
  | (Machine.Dispatch_block | Machine.Dispatch_chain | Machine.Dispatch_jit)
    as d
    when not (m.Machine.mie && m.Machine.mtimecmp <> 0) ->
      let r = Machine.step_round m d in
      (* A round ending in [Step_waiting] retired its instructions (if
         any) and then hit WFI: charge the retirements, then one idle
         cycle for the wait itself — exactly what the per-step path
         below does. *)
      let n = m.Machine.block_ev_n in
      let to_charge = match r with Machine.Step_waiting -> n - 1 | _ -> n in
      for i = 0 to to_charge - 1 do
        charge t m.Machine.block_events.(i)
      done;
      (match r with Machine.Step_waiting -> idle_cycle t | _ -> ());
      r
  | d ->
      (* One step, charged straight from [last_event] (no ring copy on
         the default path).  The block tiers land here too while
         interrupts are enabled with the timer armed: charging advances
         [mcycle] per instruction, so a comparator crossing could
         become deliverable {e between} two instructions of a block — a
         boundary the block tiers do not check. *)
      let r =
        if d = Machine.Dispatch_ref then Machine.step m else Machine.step_fast m
      in
      (match r with
      | Machine.Step_waiting -> idle_cycle t
      | _ -> charge t m.Machine.last_event);
      r

let run ?(fuel = 50_000_000) t =
  let wake_source () =
    (* A pending or future timer interrupt can end a WFI. *)
    t.machine.Machine.mtimecmp <> 0 || Machine.interrupt_pending t.machine
  in
  let rec go n last =
    if n >= fuel then last
    else
      match step t with
      | (Machine.Step_ok | Machine.Step_trap _) as r -> go (n + 1) r
      | Machine.Step_waiting when wake_source () ->
          go (n + 1) Machine.Step_waiting
      | (Machine.Step_waiting | Machine.Step_halted | Machine.Step_double_fault)
        as r ->
          r
  in
  go 0 Machine.Step_ok
