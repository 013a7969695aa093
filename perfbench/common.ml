(* Shared shapes of the benchmark's workloads. *)

(** What an operation's timed part reports: [out] is the canonical
    rendering of its simulated outputs, compared against the pinned
    value under the operation's id; the counts feed the throughput
    figures. *)
type kind = Sim | Cold_audit | Warm_audit | Plan_check

type outcome = { out : string; kind : kind; cycles : int; insns : int }

let sim ?(insns = 0) ~cycles out = { out; kind = Sim; cycles; insns }

(** One operation: [setup] is timed into [setup_s], [run] into [wall_s].
    Operations of a pass run in list order and may hand state to later
    ones through closures. *)
type op = Op : { id : string; setup : unit -> 'a; run : 'a -> outcome } -> op

let op id setup run = Op { id; setup; run }

(** [check id out] compares one output against its pin; replicas call it
    for every output they reproduce. *)
type check = string -> string -> unit

(** A workload: [ops] builds one pass's operation list (its cost is
    workload set-up); [replica] repeats the same public-call sequence
    with spans around each layer call, checks every output it reproduces
    and returns the layer counters (everything that is not a span
    time); [pins] enumerates every pinned output of the workload's whole
    seeded domain, for [--pin-out]. *)
type workload = {
  name : string;
  ops : seed:int -> minimal:bool -> op list;
  replica : seed:int -> minimal:bool -> check:check -> (string * float) list;
  pins : unit -> (string * string) list;
  domains : (string * int * int) list;
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
