(** Object types ("otypes") and sealed-entry ("sentry") capabilities
    (paper 3.1.2 and 3.2.2).

    CHERIoT reduces the otype field to three bits and splits it into two
    disjoint namespaces of seven values each (0 denotes unsealed), selected
    by the execute permission of the sealed capability.  Five executable
    otypes are consumed by (or reserved for) sentries — sealed capabilities
    that are unsealed automatically when used as a jump target and that
    carry an interrupt-posture change — leaving two for software.  None of
    the seven data otypes has hardware significance. *)

type space = Exec | Data  (** The namespace an otype value lives in. *)

type t
(** An otype: either [unsealed] or a (space, value ∈ 1..7) pair. *)

val unsealed : t
val v : space -> int -> t
(** [v space n] is the otype [n] in [space].  Raises [Invalid_argument]
    unless [1 <= n <= 7]. *)

val is_unsealed : t -> bool
val space : t -> space option
(** [space o] is [None] for [unsealed]. *)

val value : t -> int
(** The raw 3-bit field value (0 for unsealed). *)

val of_bits : space -> int -> t
(** [of_bits space bits] decodes a raw 3-bit field. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Sentries}

    The five reserved executable otypes. *)

type sentry =
  | Sentry_inherit  (** jump target; no change to interrupt posture *)
  | Sentry_enable  (** jump target; enables interrupts *)
  | Sentry_disable  (** jump target; disables interrupts *)
  | Sentry_ret_enable  (** return sentry; restores interrupts-enabled *)
  | Sentry_ret_disable  (** return sentry; restores interrupts-disabled *)

val sentry_otype : sentry -> t
val sentry_of_otype : t -> sentry option
(** [sentry_of_otype o] is the sentry kind encoded by [o], if [o] is one
    of the five reserved executable otypes. *)

val return_sentry : interrupts_enabled:bool -> sentry
(** The return sentry that restores the given posture — what a
    jump-and-link writes to the link register (3.1.2). *)

