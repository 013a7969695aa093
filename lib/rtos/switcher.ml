(** The compartment switcher (paper 2.6, 5.2).

    The switcher is the trusted routine (a little over 300 hand-written
    instructions in the real RTOS) that implements cross-compartment
    calls and returns: it validates the export, saves and clears the
    caller's registers, chops off the unused part of the caller's stack
    for the callee (CSetBounds on the stack pointer), zeroes the stack it
    hands over — destroying any local (non-global) capabilities and
    leaked secrets — and reverses it all on return.

    Without hardware help it cannot know how much of the stack was used
    before the call, so it must zero the {e entire} unused portion both
    on entry and on return.  With the stack high-water mark (5.2.1) it
    zeroes only [\[hwm, sp)] on entry (usually nothing) and exactly the
    callee's usage on return.

    This module is the cost-and-state model used by the allocation
    benchmark and the IoT application; the machine-code switcher for the
    ISA-level examples lives in {!Switcher_asm}. *)

module Sram = Cheriot_mem.Sram

type stack = {
  stk_base : int;
  stk_size : int;
  mutable sp : int;  (** grows downward from [stk_base + stk_size] *)
  mutable hwm : int;  (** lowest address stored to (mshwm) *)
}

let make_stack ~base ~size = { stk_base = base; stk_size = size; sp = base + size; hwm = base + size }

type t = {
  clock : Clock.t;
  sram : Sram.t option;
      (** when present, stack zeroing really writes, and a stack outside
          it raises *)
  hwm_enabled : bool;
  (* switch costs: register save/restore, export validation, sealing *)
  entry_overhead : int;
  return_overhead : int;
  mutable cross_calls : int;
  mutable bytes_zeroed : int;
}

let create ?(hwm_enabled = false) ?sram clock =
  {
    clock;
    sram;
    hwm_enabled;
    entry_overhead = 340;
    return_overhead = 300;
    cross_calls = 0;
    bytes_zeroed = 0;
  }

let cross_calls t = t.cross_calls
let bytes_zeroed t = t.bytes_zeroed

(* Zero [\[from, until)].  With an SRAM attached, a range outside it is a
   stack the switcher cannot clear, which would leak its contents to the
   next callee: that raises [Invalid_argument] before anything is
   charged. *)
let zero t ~from ~until =
  let bytes = until - from in
  if bytes > 0 then begin
    (match t.sram with
    | Some sram ->
        if not (Sram.in_range sram ~addr:from ~size:bytes) then
          invalid_arg
            (Printf.sprintf
               "Switcher.zero: stack range 0x%x-0x%x lies outside the SRAM"
               from until);
        Sram.fill sram ~addr:from ~len:bytes '\000'
    | None -> ());
    Clock.charge_zero t.clock bytes;
    t.bytes_zeroed <- t.bytes_zeroed + bytes
  end

(** [cross_call t stack ~callee_frame ~callee_stack_use f] performs a
    cross-compartment call around [f].  [callee_frame] is the callee's
    own frame (subtracted from the stack for the duration);
    [callee_stack_use] is how deep the callee actually dirties the stack
    (bounded by the remaining stack). *)
let cross_call t stack ~callee_frame ~callee_stack_use f =
  t.cross_calls <- t.cross_calls + 1;
  Clock.compute t.clock t.entry_overhead;
  if t.hwm_enabled then Clock.compute t.clock 4;
  let sp_at_call = stack.sp in
  (* Entry zeroing: the region handed to the callee. *)
  if t.hwm_enabled then
    (* Only [hwm, sp) can hold stale caller data below the chop point. *)
    zero t ~from:stack.hwm ~until:sp_at_call
  else
    (* No HWM: the whole unused portion must be assumed dirty. *)
    zero t ~from:stack.stk_base ~until:sp_at_call;
  stack.hwm <- sp_at_call;
  stack.sp <- sp_at_call - callee_frame;
  (* The callee runs on the chopped stack and dirties some of it. *)
  let use = Int.min callee_stack_use (stack.sp - stack.stk_base) in
  let callee_low = stack.sp - use in
  if callee_low < stack.hwm then stack.hwm <- callee_low;
  let result = f () in
  (* Return: destroy everything the callee touched. *)
  Clock.compute t.clock t.return_overhead;
  if t.hwm_enabled then begin
    Clock.compute t.clock 4;
    zero t ~from:stack.hwm ~until:sp_at_call;
    stack.hwm <- sp_at_call
  end
  else zero t ~from:stack.stk_base ~until:sp_at_call;
  stack.sp <- sp_at_call;
  result
