(* Reference refactorisation: the dense three-pass refactor that
   [Lp.Tableau_float] ran before its sparse work vector. Every column is
   scattered into a fresh dense vector, FTRAN'd over the whole eta file
   built so far, and its eta read off by two scans over all rows. It stays
   as the reference the sparse refactorisation must match bit for bit:
   same basis order, same eta rows, indices and float bits.

   Columns [0 .. n-1] are the structural columns, each a (row, value)
   array; a basis entry [>= n] is the artificial column of row
   [entry - n]. The one departure from the old code: an artificial whose
   row a structural singleton took first makes the basis singular, which
   the old code let escape as an out-of-bounds [Invalid_argument] and both
   now report as singular. *)

module T = Lp.Tableau_float

let eps = 1e-9
let fcmp a b = if Float.abs (a -. b) <= eps then 0 else Float.compare a b

let ftran etas v =
  List.iter
    (fun (e : T.eta) ->
      let x = v.(e.e_row) in
      if Float.abs x > eps then begin
        v.(e.e_row) <- e.e_pivot *. x;
        Array.iteri (fun k i -> v.(i) <- v.(i) +. (e.e_val.(k) *. x)) e.e_idx
      end)
    (List.rev etas)

let eta_of_alpha ~row alpha : T.eta =
  let ar = alpha.(row) in
  let keep = ref [] in
  for i = Array.length alpha - 1 downto 0 do
    if i <> row && Float.abs alpha.(i) > eps then keep := i :: !keep
  done;
  let idx = Array.of_list !keep in
  {
    e_row = row;
    e_pivot = 1.0 /. ar;
    e_idx = idx;
    e_val = Array.map (fun i -> -.(alpha.(i) /. ar)) idx;
  }

(* [Some (basis order, etas)], or [None] on a singular basis. *)
let refactor ~nrows:m ~(cols : (int * float) array array) basis =
  let n = Array.length cols in
  let etas = ref [] in
  let order = Array.copy basis and placed_basis = Array.copy basis in
  let taken = Array.make m false and placed = Array.make m false in
  let place t col row =
    taken.(row) <- true;
    placed.(t) <- true;
    placed_basis.(row) <- col
  in
  let rows col = Array.map fst cols.(col) in
  let pivot_full t col ~row_hint =
    let v = Array.make m 0.0 in
    Array.iter (fun (i, a) -> v.(i) <- a) cols.(col);
    ftran !etas v;
    let row =
      match row_hint with
      | Some r when Float.abs v.(r) > eps -> r
      | _ ->
        let best = ref (-1) and best_mag = ref 0.0 in
        for i = 0 to m - 1 do
          let mag = Float.abs v.(i) in
          if (not taken.(i)) && mag > eps && (!best < 0 || mag > !best_mag)
          then begin
            best := i;
            best_mag := mag
          end
        done;
        if !best < 0 then raise Exit;
        !best
    in
    etas := eta_of_alpha ~row v :: !etas;
    place t col row
  in
  match
    Array.iteri
      (fun t col ->
        if col >= n then begin
          (* an artificial whose row a singleton took: singular *)
          if taken.(col - n) then raise Exit;
          place t col (col - n)
        end
        else if Array.length cols.(col) = 1 then begin
          let r, a = cols.(col).(0) in
          if not taken.(r) then begin
            if fcmp a 1.0 <> 0 then
              etas :=
                { T.e_row = r; e_pivot = 1.0 /. a; e_idx = [||]; e_val = [||] }
                :: !etas;
            place t col r
          end
        end)
      order;
    let row_count = Array.make m 0 and row_cols = Array.make m [] in
    Array.iteri
      (fun t col ->
        if not placed.(t) then
          Array.iter
            (fun i ->
              if not taken.(i) then begin
                row_count.(i) <- row_count.(i) + 1;
                row_cols.(i) <- t :: row_cols.(i)
              end)
            (rows col))
      order;
    let queue = Queue.create () in
    for i = 0 to m - 1 do
      if (not taken.(i)) && row_count.(i) = 1 then Queue.add i queue
    done;
    while not (Queue.is_empty queue) do
      let r = Queue.take queue in
      if (not taken.(r)) && row_count.(r) = 1 then
        match List.find_opt (fun t -> not placed.(t)) row_cols.(r) with
        | None -> ()
        | Some t ->
          let col = order.(t) in
          pivot_full t col ~row_hint:(Some r);
          Array.iter
            (fun i ->
              if not taken.(i) then begin
                row_count.(i) <- row_count.(i) - 1;
                if row_count.(i) = 1 then Queue.add i queue
              end)
            (rows col)
    done;
    let bump = ref [] in
    Array.iteri (fun t _ -> if not placed.(t) then bump := t :: !bump) order;
    let size t = Array.length cols.(order.(t)) in
    List.iter
      (fun t -> pivot_full t order.(t) ~row_hint:None)
      (List.sort (fun t1 t2 -> compare (size t1) (size t2)) !bump)
  with
  | () -> Some (placed_basis, Array.of_list (List.rev !etas))
  | exception Exit -> None
