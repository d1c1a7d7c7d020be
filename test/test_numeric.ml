(* Unit and property tests for the arbitrary-precision substrate. *)

module B = Numeric.Bigint
module Q = Numeric.Rat

let check = Alcotest.check
let str = Alcotest.string
let bool = Alcotest.bool
let int_t = Alcotest.int

let bs x = B.to_string x
let qs x = Q.to_string x

(* ---------- Bigint units ---------- *)

let test_of_int_roundtrip () =
  let cases = [ 0; 1; -1; 42; -42; 32767; 32768; -32768; 1 lsl 40; max_int; min_int ] in
  List.iter
    (fun n ->
      check (Alcotest.option int_t) (string_of_int n) (Some n) (B.to_int_opt (B.of_int n)))
    cases

let test_to_string_basic () =
  check str "zero" "0" (bs B.zero);
  check str "one" "1" (bs B.one);
  check str "neg" "-12345" (bs (B.of_int (-12345)));
  check str "big" "123456789012345678901234567890"
    (bs (B.of_string "123456789012345678901234567890"))

let test_of_string_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "letters" (Invalid_argument "Bigint.of_string: bad digit")
    (fun () -> ignore (B.of_string "12a"));
  Alcotest.check_raises "bare sign" (Invalid_argument "Bigint.of_string: no digits")
    (fun () -> ignore (B.of_string "-"))

let test_add_sub () =
  let a = B.of_string "99999999999999999999" in
  check str "a+1" "100000000000000000000" (bs (B.add a B.one));
  check str "a-a" "0" (bs (B.sub a a));
  check str "0-a" ("-" ^ bs a) (bs (B.sub B.zero a));
  check str "neg cancel" "0" (bs (B.add a (B.neg a)))

let test_mul () =
  let a = B.of_string "123456789" in
  let b = B.of_string "987654321" in
  check str "123456789*987654321" "121932631112635269" (bs (B.mul a b));
  check str "sign" "-121932631112635269" (bs (B.mul (B.neg a) b));
  check str "by zero" "0" (bs (B.mul a B.zero))

let test_divmod () =
  let a = B.of_string "1000000000000000000000" in
  let b = B.of_string "7777777" in
  let q, r = B.divmod a b in
  check str "reconstruct" (bs a) (bs (B.add (B.mul q b) r));
  check bool "remainder range" true (B.compare (B.abs r) (B.abs b) < 0);
  (* truncated semantics like Stdlib: remainder has the dividend's sign *)
  let q', r' = B.divmod (B.neg a) b in
  check str "neg quotient" (bs (B.neg q)) (bs q');
  check str "neg remainder" (bs (B.neg r)) (bs r');
  check str "small / big" "0" (bs (B.div b a));
  check str "small rem big" (bs b) (bs (B.rem b a))

let test_div_by_zero () =
  Alcotest.check_raises "divmod 0" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_gcd () =
  check str "gcd 462 1071" "21" (bs (B.gcd (B.of_int 462) (B.of_int 1071)));
  check str "gcd 0 5" "5" (bs (B.gcd B.zero (B.of_int 5)));
  check str "gcd 0 0" "0" (bs (B.gcd B.zero B.zero));
  check str "gcd negatives" "6" (bs (B.gcd (B.of_int (-12)) (B.of_int 18)))

let test_pow () =
  check str "2^100" "1267650600228229401496703205376" (bs (B.pow B.two 100));
  check str "x^0" "1" (bs (B.pow (B.of_int 123) 0));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow B.two (-1)))

let test_compare () =
  let a = B.of_string "100000000000000000000" in
  check bool "a > 1" true (B.compare a B.one > 0);
  check bool "-a < 1" true (B.compare (B.neg a) B.one < 0);
  check bool "-a < -1" true (B.compare (B.neg a) B.minus_one < 0);
  check bool "equal" true (B.equal a (B.of_string "100000000000000000000"));
  check str "min" (bs (B.neg a)) (bs (B.min (B.neg a) a));
  check str "max" (bs a) (bs (B.max (B.neg a) a))

let test_to_float () =
  check (Alcotest.float 1e-6) "2^20" 1048576.0 (B.to_float (B.pow B.two 20));
  check (Alcotest.float 1.0) "neg" (-12345.0) (B.to_float (B.of_int (-12345)))

let test_karatsuba_large () =
  (* numbers far above the Karatsuba threshold (32 base-2^15 digits);
     division is an independent code path, so the round trip is a real
     cross-check of the multiplication *)
  let x = B.pow (B.of_string "123456789123456789") 13 in
  let y = B.pow (B.of_string "987654321987654321") 11 in
  let p = B.mul x y in
  let q, r = B.divmod p x in
  check bool "p / x = y" true (B.equal q y && B.is_zero r);
  let q2, r2 = B.divmod p y in
  check bool "p / y = x" true (B.equal q2 x && B.is_zero r2);
  (* power identity exercises repeated big multiplications *)
  let a = B.of_string "31415926535897932384626433" in
  check bool "x^7 * x^9 = x^16" true
    (B.equal (B.mul (B.pow a 7) (B.pow a 9)) (B.pow a 16));
  (* unbalanced operand sizes *)
  let small = B.of_int 65537 in
  let big = B.pow a 20 in
  let pr = B.mul big small in
  let qq, rr = B.divmod pr small in
  check bool "unbalanced sizes" true (B.equal qq big && B.is_zero rr)

let test_karatsuba_signs () =
  let a = B.pow (B.of_int 1234567) 40 in
  let b = B.pow (B.of_int 7654321) 40 in
  check bool "(-a)*b = -(a*b)" true (B.equal (B.mul (B.neg a) b) (B.neg (B.mul a b)));
  check bool "(-a)*(-b) = a*b" true (B.equal (B.mul (B.neg a) (B.neg b)) (B.mul a b))

(* ---------- Bigint properties ---------- *)

let prop_karatsuba_distributes =
  (* (x + y) * z = x*z + y*z with operands straddling the threshold *)
  QCheck.Test.make ~name:"large multiplication distributes" ~count:60
    QCheck.(triple (int_range 2 999999) (int_range 2 999999) (int_range 1 60))
    (fun (x, y, e) ->
      let bx = B.pow (B.of_int x) e in
      let by = B.pow (B.of_int y) e in
      let bz = B.pow (B.of_int (x + y)) (e / 2) in
      B.equal (B.mul (B.add bx by) bz) (B.add (B.mul bx bz) (B.mul by bz)))

let arb_int_pair = QCheck.(pair int int)

let prop_add_commutes =
  QCheck.Test.make ~name:"bigint add commutes" ~count:500 arb_int_pair (fun (x, y) ->
      B.equal (B.add (B.of_int x) (B.of_int y)) (B.add (B.of_int y) (B.of_int x)))

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches int on small values" ~count:500
    QCheck.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
    (fun (x, y) -> B.to_int_opt (B.add (B.of_int x) (B.of_int y)) = Some (x + y))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches int on small values" ~count:500
    QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (x, y) -> B.to_int_opt (B.mul (B.of_int x) (B.of_int y)) = Some (x * y))

let prop_divmod_reconstructs =
  QCheck.Test.make ~name:"bigint a = q*b + r with |r| < |b|" ~count:1000
    QCheck.(pair int int)
    (fun (x, y) ->
      QCheck.assume (y <> 0);
      let a = B.mul (B.of_int x) (B.of_int x) (* widen beyond int *) in
      let b = B.of_int y in
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r) && B.compare (B.abs r) (B.abs b) < 0)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint string roundtrip" ~count:500 QCheck.int (fun x ->
      let a = B.mul (B.of_int x) (B.of_int 1234567) in
      B.equal a (B.of_string (B.to_string a)))

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:500 arb_int_pair (fun (x, y) ->
      QCheck.assume (x <> 0 || y <> 0);
      let g = B.gcd (B.of_int x) (B.of_int y) in
      B.is_zero (B.rem (B.of_int x) g) && B.is_zero (B.rem (B.of_int y) g))

(* ---------- Rat units ---------- *)

let test_rat_normalisation () =
  check str "2/4" "1/2" (qs (Q.of_ints 2 4));
  check str "-2/-4" "1/2" (qs (Q.of_ints (-2) (-4)));
  check str "2/-4" "-1/2" (qs (Q.of_ints 2 (-4)));
  check str "0/7" "0" (qs (Q.of_ints 0 7));
  check str "integer" "5" (qs (Q.of_ints 10 2))

let test_rat_arith () =
  check str "1/3 + 1/6" "1/2" (qs (Q.add (Q.of_ints 1 3) (Q.of_ints 1 6)));
  check str "1/2 * 2/3" "1/3" (qs (Q.mul (Q.of_ints 1 2) (Q.of_ints 2 3)));
  check str "(1/2) / (3/4)" "2/3" (qs (Q.div (Q.of_ints 1 2) (Q.of_ints 3 4)));
  check str "1 - 1/3" "2/3" (qs (Q.sub Q.one (Q.of_ints 1 3)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rat_floor_ceil () =
  check str "floor 7/2" "3" (bs (Q.floor (Q.of_ints 7 2)));
  check str "ceil 7/2" "4" (bs (Q.ceil (Q.of_ints 7 2)));
  check str "floor -7/2" "-4" (bs (Q.floor (Q.of_ints (-7) 2)));
  check str "ceil -7/2" "-3" (bs (Q.ceil (Q.of_ints (-7) 2)));
  check str "floor 3" "3" (bs (Q.floor (Q.of_int 3)));
  check str "ceil 3" "3" (bs (Q.ceil (Q.of_int 3)))

let test_rat_compare () =
  check bool "1/3 < 1/2" true (Q.compare (Q.of_ints 1 3) (Q.of_ints 1 2) < 0);
  check bool "-1/3 > -1/2" true (Q.compare (Q.of_ints (-1) 3) (Q.of_ints (-1) 2) > 0);
  check bool "equal" true (Q.equal (Q.of_ints 3 9) (Q.of_ints 1 3));
  check bool "is_integer" true (Q.is_integer (Q.of_ints 8 4));
  check bool "not integer" false (Q.is_integer (Q.of_ints 8 3))

let test_rat_of_float () =
  check str "0.5" "1/2" (qs (Q.of_float_approx 0.5));
  check str "0.25" "1/4" (qs (Q.of_float_approx 0.25));
  check bool "0.1 close" true
    (Q.to_float (Q.abs (Q.sub (Q.of_float_approx 0.1) (Q.of_ints 1 10))) < 1e-15);
  Alcotest.check_raises "nan" (Invalid_argument "Rat.of_float_approx: not finite")
    (fun () -> ignore (Q.of_float_approx Float.nan))

(* ---------- Rat properties ---------- *)

let arb_rat =
  QCheck.map
    (fun (n, d) -> Q.of_ints n (if d = 0 then 1 else d))
    QCheck.(pair (int_range (-10000) 10000) (int_range (-100) 100))

let prop_rat_add_assoc =
  QCheck.Test.make ~name:"rat add associative" ~count:300
    QCheck.(triple arb_rat arb_rat arb_rat)
    (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)))

let prop_rat_distributive =
  QCheck.Test.make ~name:"rat mul distributes over add" ~count:300
    QCheck.(triple arb_rat arb_rat arb_rat)
    (fun (a, b, c) -> Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_rat_inverse =
  QCheck.Test.make ~name:"rat x * 1/x = 1" ~count:300 arb_rat (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal (Q.mul a (Q.inv a)) Q.one)

let prop_rat_floor_bounds =
  QCheck.Test.make ~name:"rat floor(x) <= x < floor(x)+1" ~count:300 arb_rat (fun a ->
      let f = Q.of_bigint (Q.floor a) in
      Q.compare f a <= 0 && Q.compare a (Q.add f Q.one) < 0)

let prop_rat_total_order =
  QCheck.Test.make ~name:"rat compare antisymmetric" ~count:300
    QCheck.(pair arb_rat arb_rat)
    (fun (a, b) -> compare (Q.compare a b) 0 = compare 0 (Q.compare b a))

(* ---------- Rat against the bignum-only oracle ---------- *)

module O = Rat_oracle

(* Components that straddle the native/bignum boundary at 2^30: both sides
   of ±2^30, ±2^31 and 2^40, operands whose cross products come near 2^60,
   full-width ints and powers well past 63 bits. *)
let gen_component =
  let p k = 1 lsl k in
  let edges =
    [ 1; 2; 3; p 29; p 30 - 1; p 30; p 30 + 1; p 31 - 1; p 31; p 31 + 1; p 40; 3 * p 40;
      p 60 / 3; p 61 ]
  in
  QCheck.Gen.(
    frequency
      [
        (4, map B.of_int (int_range (-1000) 1000));
        (4, map2 (fun e s -> B.of_int (if s then e else -e)) (oneofl edges) bool);
        (2, map2 (fun e k -> B.of_int (e + k)) (oneofl edges) (int_range (-3) 3));
        (2, map B.of_int int);
        (1, map2 (fun b e -> B.pow (B.of_int b) e) (int_range (-40) 40) (0 -- 30));
      ])

(* A rational drawn as an unreduced fraction, built in both implementations. *)
let arb_pair =
  QCheck.make
    ~print:(fun (_, o) -> O.to_string o)
    (QCheck.Gen.map2
       (fun n d ->
         let d = if B.is_zero d then B.one else d in
         (Q.make n d, O.make n d))
       gen_component gen_component)

(* Both raise [Division_by_zero], or both return the same string. *)
let agrees q o =
  match q () with
  | x -> ( match o () with y -> String.equal x y | exception Division_by_zero -> false)
  | exception Division_by_zero -> (
    match o () with _ -> false | exception Division_by_zero -> true)

let prop_oracle_binop (name, qf, of_) =
  QCheck.Test.make ~name:("rat " ^ name ^ " matches oracle") ~count:1000
    QCheck.(pair arb_pair arb_pair)
    (fun ((qa, oa), (qb, ob)) ->
      agrees (fun () -> qs (qf qa qb)) (fun () -> O.to_string (of_ oa ob)))

let prop_oracle_unop name (qf, of_) =
  QCheck.Test.make ~name:("rat " ^ name ^ " matches oracle") ~count:1000 arb_pair
    (fun (qa, oa) -> agrees (fun () -> qf qa) (fun () -> of_ oa))

let oracle_binops =
  List.map prop_oracle_binop
    [
      ("add", Q.add, O.add);
      ("sub", Q.sub, O.sub);
      ("mul", Q.mul, O.mul);
      ("div", Q.div, O.div);
      ("min", Q.min, O.min);
      ("max", Q.max, O.max);
    ]

let oracle_unops =
  let rat q o = ((fun a -> qs (q a)), fun a -> O.to_string (o a)) in
  let via show q o = ((fun a -> show (q a)), fun a -> show (o a)) in
  let bits x = Int64.to_string (Int64.bits_of_float x) in
  [
    prop_oracle_unop "inv" (rat Q.inv O.inv);
    prop_oracle_unop "neg" (rat Q.neg O.neg);
    prop_oracle_unop "abs" (rat Q.abs O.abs);
    prop_oracle_unop "floor" (via bs Q.floor O.floor);
    prop_oracle_unop "ceil" (via bs Q.ceil O.ceil);
    prop_oracle_unop "num" (via bs Q.num O.num);
    prop_oracle_unop "den" (via bs Q.den O.den);
    prop_oracle_unop "sign" (via string_of_int Q.sign O.sign);
    prop_oracle_unop "is_integer" (via string_of_bool Q.is_integer O.is_integer);
    prop_oracle_unop "is_zero" (via string_of_bool Q.is_zero O.is_zero);
    prop_oracle_unop "to_float bits" (via bits Q.to_float O.to_float);
  ]

let prop_oracle_compare =
  QCheck.Test.make ~name:"rat compare and equal match oracle" ~count:1000
    QCheck.(pair arb_pair arb_pair)
    (fun ((qa, oa), (qb, ob)) ->
      Int.compare (Q.compare qa qb) 0 = Int.compare (O.compare oa ob) 0
      && Bool.equal (Q.equal qa qb) (O.equal oa ob))

let gen_int_component =
  QCheck.Gen.(
    oneof
      [
        int_range (-1000) 1000;
        oneofl [ 0; 1; -1; (1 lsl 30) - 1; 1 lsl 30; -(1 lsl 30); 1 lsl 31 ];
        oneofl [ max_int; min_int ];
        int;
      ])

let prop_oracle_of_ints =
  QCheck.Test.make ~name:"rat of_ints matches oracle" ~count:1000
    (QCheck.make
       ~print:(fun (n, d) -> Printf.sprintf "%d/%d" n d)
       QCheck.Gen.(pair gen_int_component gen_int_component))
    (fun (n, d) ->
      agrees (fun () -> qs (Q.of_ints n d)) (fun () -> O.to_string (O.of_ints n d))
      && qs (Q.of_int n) = O.to_string (O.of_int n))

let prop_oracle_of_float =
  let gen =
    QCheck.Gen.(
      oneof
        [
          float;
          map float_of_int (int_range (-2000) 2000);
          map2 (fun e k -> ldexp 1.0 e +. float_of_int k) (28 -- 33) (int_range (-2) 2);
          map2 (fun m e -> ldexp m e) (float_range (-1.0) 1.0) (int_range (-80) 80);
          oneofl [ 0.0; -0.0; 0.1; -0.5; 1e-300; 5e-324; 1e300 ];
        ])
  in
  QCheck.Test.make ~name:"rat of_float_approx matches oracle" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      qs (Q.of_float_approx f) = O.to_string (O.of_float_approx f))

(* Canonical form: a value that fits the native form is never kept as a
   bignum pair, so [equal] (and structural equality) agree with [compare]. *)
let prop_canonical =
  QCheck.Test.make ~name:"rat equal iff compare = 0" ~count:1000
    (QCheck.make
       ~print:(fun (n, d, k) -> String.concat " " [ bs n; bs d; bs k ])
       QCheck.Gen.(triple gen_component gen_component gen_component))
    (fun (n, d, k) ->
      QCheck.assume (not (B.is_zero d || B.is_zero k));
      let x = Q.make n d and y = Q.make (B.mul n k) (B.mul d k) in
      let w = Q.div (Q.of_bigint n) (Q.of_bigint d) and z = Q.make d k in
      Q.equal x y && x = y && Q.compare x y = 0 && Q.equal x w
      && Bool.equal (Q.equal x z) (Q.compare x z = 0))

let test_rat_canonical () =
  let p40 = B.pow B.two 40 in
  let one' = Q.make p40 p40 in
  check bool "2^40/2^40 equal one" true (Q.equal one' Q.one);
  check bool "2^40/2^40 = one structurally" true (one' = Q.one);
  check int_t "2^40/2^40 compare one" 0 (Q.compare one' Q.one);
  let three = Q.make (B.mul_int p40 3) p40 in
  check bool "3*2^40/2^40 equal 3" true (Q.equal three (Q.of_int 3));
  check bool "of_bigint 2^40 / 2^40 equal one" true
    (Q.equal (Q.div (Q.of_bigint p40) (Q.of_bigint p40)) Q.one);
  let big = Q.of_int (1 lsl 30) in
  check bool "2^30 - 1 equal 2^30 - 1" true
    (Q.equal (Q.sub big Q.one) (Q.of_int ((1 lsl 30) - 1)));
  check str "2^30 * 2^30" (bs (B.pow B.two 60)) (qs (Q.mul big big))

(* Both parts convert to infinity: the quotient was NaN before the common
   shift. *)
let test_rat_to_float_huge () =
  let p1099 = B.pow B.two 1099 in
  let x = Q.to_float (Q.make (B.mul_int p1099 2) (B.add p1099 B.one)) in
  check bool "2^1100/(2^1099+1) ~ 2" true (Float.abs (x -. 2.0) < 1e-12);
  let p1100 = B.pow B.two 1100 in
  let y = Q.to_float (Q.make (B.neg (B.add p1100 B.one)) (B.pow B.two 1098)) in
  check bool "-(2^1100+1)/2^1098 ~ -4" true (Float.abs (y +. 4.0) < 1e-12);
  let z = Q.to_float (Q.make p1100 (B.of_int 3)) in
  check bool "2^1100/3 is infinite" true (z = Float.infinity)

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "numeric"
    [
      ( "bigint",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "to_string" `Quick test_to_string_basic;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "karatsuba large" `Quick test_karatsuba_large;
          Alcotest.test_case "karatsuba signs" `Quick test_karatsuba_signs;
        ] );
      ( "bigint-props",
        qsuite
          [
            prop_add_commutes;
            prop_add_matches_int;
            prop_mul_matches_int;
            prop_divmod_reconstructs;
            prop_string_roundtrip;
            prop_gcd_divides;
            prop_karatsuba_distributes;
          ] );
      ( "rat",
        [
          Alcotest.test_case "normalisation" `Quick test_rat_normalisation;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "of_float" `Quick test_rat_of_float;
          Alcotest.test_case "canonical form" `Quick test_rat_canonical;
          Alcotest.test_case "to_float of huge parts" `Quick test_rat_to_float_huge;
        ] );
      ( "rat-props",
        qsuite
          [
            prop_rat_add_assoc;
            prop_rat_distributive;
            prop_rat_inverse;
            prop_rat_floor_bounds;
            prop_rat_total_order;
          ] );
      ( "rat-oracle",
        qsuite
          (oracle_binops @ oracle_unops
          @ [
              prop_oracle_compare;
              prop_oracle_of_ints;
              prop_oracle_of_float;
              prop_canonical;
            ]) );
    ]
