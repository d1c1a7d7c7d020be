(* Exact rationals in two canonical forms.

   [S (n, d)] holds a value whose numerator and denominator are both below
   2^30 in magnitude as native ints; [L (n, d)] holds every other value as
   a {!Bigint} pair. A value that fits is never stored in [L], so each
   rational has exactly one representation and structural equality is
   value equality in both forms. Both forms keep [d > 0] and
   [gcd |n| d = 1]; zero is [S (0, 1)].

   With both operands below 2^30, every cross product below is below 2^60
   and a sum of two below 2^61, so the native path cannot overflow a 63-bit
   [int]. It reduces with an int gcd and leaves for [L] only when the
   reduced result does not fit. *)

module B = Bigint

type t = S of int * int | L of B.t * B.t

let limit = 1 lsl 30
let fits x = x > -limit && x < limit

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* [n/d] already reduced, with [d > 0]. *)
let of_reduced n d =
  if fits n && d < limit then S (n, d) else L (B.of_int n, B.of_int d)

let norm_pos n d =
  if n = 0 then S (0, 1)
  else
    let g = gcd_int (Stdlib.abs n) d in
    of_reduced (n / g) (d / g)

(* [n/d] from native ints of magnitude below 2^61 with [d <> 0]. *)
let norm_int n d = if d < 0 then norm_pos (-n) (-d) else norm_pos n d

let demote n d =
  match (B.to_int_opt n, B.to_int_opt d) with
  | Some n', Some d' when fits n' && d' < limit -> S (n', d')
  | _ -> L (n, d)

let normalise n d =
  if B.is_zero d then raise Division_by_zero
  else if B.is_zero n then S (0, 1)
  else begin
    let g = B.gcd n d in
    let n = B.div n g and d = B.div d g in
    if B.sign d < 0 then demote (B.neg n) (B.neg d) else demote n d
  end

let big = function S (n, d) -> (B.of_int n, B.of_int d) | L (n, d) -> (n, d)

let make n d = normalise n d
let zero = S (0, 1)
let one = S (1, 1)
let minus_one = S (-1, 1)

let of_int i = if fits i then S (i, 1) else L (B.of_int i, B.one)

let of_ints n d =
  if d = 0 then raise Division_by_zero
  else if fits n && fits d then norm_int n d
  else normalise (B.of_int n) (B.of_int d)

let of_bigint n = demote n B.one
let num = function S (n, _) -> B.of_int n | L (n, _) -> n
let den = function S (_, d) -> B.of_int d | L (_, d) -> d

let add a b =
  match (a, b) with
  | S (n1, 1), S (n2, 1) -> of_reduced (n1 + n2) 1
  | S (n1, d1), S (n2, d2) -> norm_pos ((n1 * d2) + (n2 * d1)) (d1 * d2)
  | _ ->
    let n1, d1 = big a and n2, d2 = big b in
    normalise (B.add (B.mul n1 d2) (B.mul n2 d1)) (B.mul d1 d2)

let sub a b =
  match (a, b) with
  | S (n1, 1), S (n2, 1) -> of_reduced (n1 - n2) 1
  | S (n1, d1), S (n2, d2) -> norm_pos ((n1 * d2) - (n2 * d1)) (d1 * d2)
  | _ ->
    let n1, d1 = big a and n2, d2 = big b in
    normalise (B.sub (B.mul n1 d2) (B.mul n2 d1)) (B.mul d1 d2)

let mul a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> norm_pos (n1 * n2) (d1 * d2)
  | _ ->
    let n1, d1 = big a and n2, d2 = big b in
    normalise (B.mul n1 n2) (B.mul d1 d2)

let div a b =
  match (a, b) with
  | _, S (0, _) -> raise Division_by_zero
  | S (n1, d1), S (n2, d2) -> norm_int (n1 * d2) (d1 * n2)
  | _ ->
    let n1, d1 = big a and n2, d2 = big b in
    normalise (B.mul n1 d2) (B.mul d1 n2)

let neg = function S (n, d) -> S (-n, d) | L (n, d) -> L (B.neg n, d)
let abs = function S (n, d) -> S (Stdlib.abs n, d) | L (n, d) -> L (B.abs n, d)

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n < 0 then S (-d, -n) else S (d, n)
  | L (n, d) -> if B.sign n < 0 then L (B.neg d, B.neg n) else L (d, n)

let compare a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> Int.compare (n1 * d2) (n2 * d1)
  | _ ->
    let n1, d1 = big a and n2, d2 = big b in
    B.compare (B.mul n1 d2) (B.mul n2 d1)

let equal a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> n1 = n2 && d1 = d2
  | L (n1, d1), L (n2, d2) -> B.equal n1 n2 && B.equal d1 d2
  | _ -> false

let is_zero = function S (n, _) -> n = 0 | L _ -> false
let sign = function S (n, _) -> Int.compare n 0 | L (n, _) -> B.sign n
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Stdlib's [/] truncates toward zero; [d > 0]. *)
let floor = function
  | S (n, d) -> B.of_int (if n >= 0 then n / d else -((d - 1 - n) / d))
  | L (n, d) ->
    let q, r = B.divmod n d in
    if B.sign r < 0 then B.sub q B.one else q

let ceil = function
  | S (n, d) -> B.of_int (if n >= 0 then (n + d - 1) / d else -(-n / d))
  | L (n, d) ->
    let q, r = B.divmod n d in
    if B.sign r > 0 then B.add q B.one else q

let is_integer = function S (_, d) -> d = 1 | L (_, d) -> B.is_one d

(* Both parts of a small value convert exactly, so [float n /. float d] is
   the same quotient as the bignum one. When a huge part converts to
   infinity, both parts are first shifted right by a common bit count that
   brings the larger one to 1000 bits, so the quotient is not NaN. *)
let to_float = function
  | S (n, d) -> float n /. float d
  | L (n, d) ->
    let fn = B.to_float n and fd = B.to_float d in
    if Float.is_finite fn && Float.is_finite fd then fn /. fd
    else begin
      let shift = B.pow B.two (Stdlib.max (B.bit_length n) (B.bit_length d) - 1000) in
      B.to_float (B.div n shift) /. B.to_float (B.div d shift)
    end

let of_float_approx f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float_approx: not finite";
  if Float.is_integer f && Float.abs f < float limit then S (int_of_float f, 1)
  else begin
    let m, e = Float.frexp f in
    (* f = m * 2^e with 0.5 <= |m| < 1; m * 2^53 is integral for doubles. *)
    let mi = Int64.to_int (Int64.of_float (m *. 9007199254740992.0)) in
    let e = e - 53 in
    if e >= 0 then of_bigint (B.mul (B.of_int mi) (B.pow B.two e))
    else if e > -62 then norm_pos mi (1 lsl -e)
    else normalise (B.of_int mi) (B.pow B.two (-e))
  end

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | L (n, d) ->
    if B.is_one d then B.to_string n else B.to_string n ^ "/" ^ B.to_string d

let pp fmt a = Format.pp_print_string fmt (to_string a)

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
let ( = ) = equal
