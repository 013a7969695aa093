(** Execution tracing: single-step a machine and render each retired
    instruction with its disassembly and effects — the simulator's
    equivalent of a waveform viewer, used by [bin/cheriot_sim]. *)

open Cheriot_core

type entry = {
  tr_index : int;
  tr_pc : int;
  tr_insn : Insn.t option;
  tr_result : Machine.result;
  tr_cycles : int;  (** cumulative, if a perf harness drives the clock *)
  tr_mark : int;
      (** control-flow mark ([Machine.mark_chained] /
          [Machine.mark_side_exit]); 0 on non-chained dispatch paths *)
}

let pp_result fmt = function
  | Machine.Step_ok -> ()
  | Machine.Step_trap c -> Format.fprintf fmt "  !! trap: %a" Machine.pp_cause c
  | Machine.Step_waiting -> Format.fprintf fmt "  (wfi)"
  | Machine.Step_halted -> Format.fprintf fmt "  == halted =="
  | Machine.Step_double_fault -> Format.fprintf fmt "  ** double fault **"

(* Chained transfers and superblock side exits render distinctly so a
   chained trace can be eyeballed against a per-step one: the
   instruction stream is identical, only the annotations differ. *)
let pp_mark fmt m =
  if m = Machine.mark_chained then Format.fprintf fmt "  [chain]"
  else if m = Machine.mark_side_exit then Format.fprintf fmt "  [side-exit]"
  else if m = Machine.mark_jit then Format.fprintf fmt "  [jit]"
  else if m = Machine.mark_opt_side_exit then
    Format.fprintf fmt "  [opt-side-exit]"

let pp_entry fmt e =
  (match e.tr_insn with
  | Some i -> Format.fprintf fmt "%8d  %8d  0x%08x  %a" e.tr_index e.tr_cycles e.tr_pc Insn.pp i
  | None -> Format.fprintf fmt "%8d  %8d  0x%08x  <no retire>" e.tr_index e.tr_cycles e.tr_pc);
  pp_mark fmt e.tr_mark;
  pp_result fmt e.tr_result

(** Step [m] up to [fuel] instructions, calling [f] per retired
    instruction with a trace entry.  Returns the final result and step
    count.  [dispatch] picks the execution machinery; every path emits
    one entry per instruction of each recorded round (from the
    machine's retirement ring), so the rendered trace is the same
    stream on every path — chained transfers and superblock side exits
    carry a [tr_mark]. *)
let run ?(fuel = 1_000_000) ?(dispatch = Machine.Dispatch_ref) m ~f =
  let rec go i =
    if i >= fuel then (Machine.Step_ok, i)
    else begin
      let pc = Capability.address m.Machine.pcc in
      let r = Machine.step_round m dispatch in
      let n = m.Machine.block_ev_n in
      let i =
        if n = 0 then begin
          (* a round that retired nothing (WFI idle) *)
          f
            {
              tr_index = i;
              tr_pc = pc;
              tr_insn = None;
              tr_result = r;
              tr_cycles = m.Machine.mcycle;
              tr_mark = 0;
            };
          i + 1
        end
        else begin
          for k = 0 to n - 1 do
            f
              {
                tr_index = i + k;
                tr_pc = m.Machine.block_pcs.(k);
                tr_insn = m.Machine.block_events.(k).Machine.ev_insn;
                (* intermediate instructions of a round all retired
                   normally; only the round's last entry carries the
                   round result *)
                tr_result = (if k = n - 1 then r else Machine.Step_ok);
                tr_cycles = m.Machine.mcycle;
                tr_mark = m.Machine.block_marks.(k);
              }
          done;
          i + n
        end
      in
      match r with
      | Machine.Step_ok | Machine.Step_trap _ -> go i
      | Machine.Step_waiting | Machine.Step_halted | Machine.Step_double_fault
        ->
          (r, i)
    end
  in
  go 0
