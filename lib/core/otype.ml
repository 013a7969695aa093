type space = Exec | Data
type t = Unsealed | Sealed of space * int

let unsealed = Unsealed

let v space n =
  if n < 1 || n > 7 then invalid_arg "Otype.v: value must be in 1..7";
  Sealed (space, n)

let is_unsealed = function Unsealed -> true | Sealed _ -> false
let space = function Unsealed -> None | Sealed (sp, _) -> Some sp
let value = function Unsealed -> 0 | Sealed (_, n) -> n
let of_bits space bits =
  match bits land 7 with 0 -> Unsealed | n -> Sealed (space, n)

let equal a b =
  match (a, b) with
  | Unsealed, Unsealed -> true
  | Sealed (sa, na), Sealed (sb, nb) -> sa = sb && na = nb
  | Unsealed, Sealed _ | Sealed _, Unsealed -> false

let pp fmt = function
  | Unsealed -> Format.pp_print_string fmt "unsealed"
  | Sealed (Exec, n) -> Format.fprintf fmt "exec:%d" n
  | Sealed (Data, n) -> Format.fprintf fmt "data:%d" n

type sentry =
  | Sentry_inherit
  | Sentry_enable
  | Sentry_disable
  | Sentry_ret_enable
  | Sentry_ret_disable

let sentry_otype = function
  | Sentry_inherit -> Sealed (Exec, 1)
  | Sentry_enable -> Sealed (Exec, 2)
  | Sentry_disable -> Sealed (Exec, 3)
  | Sentry_ret_enable -> Sealed (Exec, 4)
  | Sentry_ret_disable -> Sealed (Exec, 5)

let sentry_of_otype = function
  | Sealed (Exec, 1) -> Some Sentry_inherit
  | Sealed (Exec, 2) -> Some Sentry_enable
  | Sealed (Exec, 3) -> Some Sentry_disable
  | Sealed (Exec, 4) -> Some Sentry_ret_enable
  | Sealed (Exec, 5) -> Some Sentry_ret_disable
  | Unsealed | Sealed _ -> None

let return_sentry ~interrupts_enabled =
  if interrupts_enabled then Sentry_ret_enable else Sentry_ret_disable

