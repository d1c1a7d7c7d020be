(** Exact rational numbers.

    Values are kept normalised: the denominator is strictly positive and
    coprime with the numerator; zero is [0/1]. Total ordering is the usual
    order on ℚ.

    A value whose numerator and denominator are both below 2^30 in
    magnitude is stored as two native ints, and its arithmetic runs on
    native ints that cannot overflow; every other value is a {!Bigint}
    pair. Each value has exactly one form, and no result (value, float
    conversion or string) depends on which form an operand was in. *)

type t

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] normalises the fraction. @raise Division_by_zero if
    [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints num den]. @raise Division_by_zero if [den = 0]. *)

val of_bigint : Bigint.t -> t
val num : t -> Bigint.t
val den : t -> Bigint.t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on division by zero. *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val sign : t -> int
val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Bigint.t
(** Largest integer [<=] the value. *)

val ceil : t -> Bigint.t
(** Smallest integer [>=] the value. *)

val is_integer : t -> bool

val to_float : t -> float
(** Quotient of the parts converted to floats. Parts too large for a float
    are first shifted right by a common bit count, so the result is never
    NaN. *)

val of_float_approx : float -> t
(** Dyadic approximation of a finite float (exact for IEEE doubles).
    @raise Invalid_argument on NaN or infinities. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( = ) : t -> t -> bool
