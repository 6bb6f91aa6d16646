(* Both fields are floats, so the record is flat and [add] builds no
   record. *)
module Acc = struct
  type t = { mutable total : float; mutable comp : float }

  let create () = { total = 0.0; comp = 0.0 }

  let reset a =
    a.total <- 0.0;
    a.comp <- 0.0

  (* Neumaier's variant: unlike plain Kahan it also compensates when the
     incoming term is larger in magnitude than the running total.
     Inlined into [add_at] and the folds below, so a term read from a
     float array reaches it unboxed. *)
  let[@inline] add a x =
    let t = a.total +. x in
    a.comp <-
      a.comp
      +. (if Float.abs a.total >= Float.abs x then (a.total -. t) +. x
          else (x -. t) +. a.total);
    a.total <- t

  let add_at a xs i = add a xs.(i)

  let sum a = a.total +. a.comp
end

let sum_list xs =
  let a = Acc.create () in
  List.iter (fun x -> Acc.add a x) xs;
  Acc.sum a

let sum_fn n f =
  if n < 0 then invalid_arg "Kahan.sum_fn: negative count";
  let a = Acc.create () in
  for i = 0 to n - 1 do
    Acc.add a (f i)
  done;
  Acc.sum a
