(* The machine's speed, measured by a fixed reference computation that
   shares no code with the program.

   The machine the benchmark runs on may share its cores with other
   tenants, and then runs the same deterministic iteration up to 1.8 times
   slower for minutes at a time. Wall time then measures the neighbours more
   than the program. The benchmark therefore times this reference between
   stretches of program calls and scales each stretch by [nominal_s] over
   the mean of the reference times right before and after it: the time the
   stretch would have taken on a machine on which the reference takes
   [nominal_s]. The reference never changes, so a change to the program
   moves the scaled time as it moves wall time on a steady machine. *)

(* Close to the reference's time on an idle 2-core container, so that
   scaled times read as seconds there. *)
let nominal_s = 0.1

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

(* The reference allocates nothing once its arrays exist, so that its time
   does not depend on how much garbage the program's calls left for the
   collector. *)
let n = 120
let matrix = Array.init n (fun _ -> Array.make n 0.0)
let keys = Array.make 20_000 0
let table = Array.make 32_768 (-1)

(* Dense Gaussian elimination with partial pivoting on a fixed matrix:
   float arithmetic over arrays, as in the simplex kernel. *)
let eliminate seed =
  let a = matrix in
  let x = ref seed in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      x := lcg !x;
      a.(i).(j) <- float_of_int (!x land 1023) /. 1024.0
    done;
    a.(i).(i) <- a.(i).(i) +. float_of_int n
  done;
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
    done;
    let t = a.(k) in
    a.(k) <- a.(!p);
    a.(!p) <- t;
    let rk = a.(k) in
    for i = k + 1 to n - 1 do
      let ri = a.(i) in
      let f = ri.(k) /. rk.(k) in
      for j = k to n - 1 do
        ri.(j) <- ri.(j) -. (f *. rk.(j))
      done
    done
  done;
  a.(n - 1).(n - 1)

(* Hashing and sorting of integers: branchy integer work over arrays, as
   in layering, max-flow and scheduling. *)
let hash_sort seed =
  let x = ref seed and found = ref 0 in
  Array.fill table 0 (Array.length table) (-1);
  let mask = Array.length table - 1 in
  for i = 0 to Array.length keys - 1 do
    x := lcg !x;
    let k = !x land 65535 in
    keys.(i) <- k;
    let h = ref ((k * 40503) land mask) in
    while table.(!h) <> -1 && table.(!h) <> k do
      h := (!h + 1) land mask
    done;
    if table.(!h) = k then incr found else table.(!h) <- k
  done;
  Array.sort Int.compare keys;
  !found + keys.(0)

let reference () =
  let acc = ref 0.0 in
  for r = 1 to 12 do
    acc := !acc +. eliminate r +. float_of_int (hash_sort r)
  done;
  ignore (Sys.opaque_identity !acc)

(* Wall time of one run of the reference. It always runs on one domain,
   also around calls that keep two busy: two domains running it at once
   spend much of the time in their shared minor collections, which would
   make the scaled times of the two kinds of call incomparable. *)
let reference_s () = snd (Telemetry.Clock.timed reference)

(* [wall_s] scaled to the nominal machine by the reference times measured
   right before and right after it. *)
let scale ~before ~after wall_s = wall_s *. nominal_s /. ((before +. after) /. 2.0)
