(* Host-speed sampling for the timed runs.

   Shared hosts drift in speed by tens of percent over seconds to minutes
   as other tenants load them, and on such a host that drift, not the
   program, dominates the spread between runs.  While a timed run is in
   progress an interval timer interrupts it every [period] seconds and
   times a short fixed loop over a 64 KiB array that does not touch the
   library.  Every timed interval is then rescaled by the samples taken
   during it (and the nearest ones around it):
   [raw * reference_s / mean sample], i.e. seconds at the host speed where
   the loop takes [reference_s].  The samples' own time is subtracted
   from the interval they fall in.  A change to the program cannot move
   the loop, so it moves the rescaled time as it moves the raw one, while
   host drift cancels. *)

let period = 0.05

(* The timed rounds' time that defines the reference speed (about their
   time on a lightly loaded 2-core 2 GHz x86-64 host). *)
let reference_s = 0.00007

let buf = Array.make 8192 0
let durs = ref (Array.make 1024 0.0) (* each sample's whole time *)
let speeds = ref (Array.make 1024 0.0) (* its timed rounds *)
let count = ref 0

let loop rounds =
  let s = ref 0 in
  for r = 1 to rounds do
    for i = 0 to Array.length buf - 1 do
      let v = buf.(i) + r + (!s land 0xff) in
      buf.(i) <- v land 0xffff;
      s := !s + v
    done
  done;
  ignore (Sys.opaque_identity !s)

(* The program evicts the loop's array between samples, so one untimed
   round brings it back into the cache first: the timed rounds then
   measure the host, not how much memory the interrupted operation
   touched. *)
let sample () =
  let t0 = Span.now () in
  loop 1;
  let t1 = Span.now () in
  loop 6;
  let t2 = Span.now () in
  if !count = Array.length !durs then begin
    durs := Array.append !durs (Array.make !count 0.0);
    speeds := Array.append !speeds (Array.make !count 0.0)
  end;
  !durs.(!count) <- t2 -. t0;
  !speeds.(!count) <- t2 -. t1;
  incr count

let timer it_value = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = it_value; it_value })

let start () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  timer period

let stop () =
  timer 0.0;
  Sys.set_signal Sys.sigalrm Sys.Signal_default

(** A timed interval: its wall time and the samples taken during it,
    [k_start, k_end). *)
type interval = { wall : float; k_start : int; k_end : int }

let time f =
  let k_start = !count in
  let t0 = Span.now () in
  let r = f () in
  let wall = Span.now () -. t0 in
  (r, { wall; k_start; k_end = !count })

let sum a lo hi =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    acc := !acc +. a.(i)
  done;
  !acc

(** The interval's own time: its wall time minus the samples in it. *)
let raw iv = iv.wall -. sum !durs iv.k_start iv.k_end

(* Samples this close on either side also describe the host during a
   short interval; a long one is described by its own. *)
let margin = 2

(** [raw] at the reference host speed.  Call once the run's sampling has
    stopped, so the samples after the interval exist. *)
let rescale iv =
  let lo = max 0 (iv.k_start - margin) and hi = min !count (iv.k_end + margin) in
  if hi <= lo then raw iv
  else raw iv *. reference_s /. (sum !speeds lo hi /. float_of_int (hi - lo))
