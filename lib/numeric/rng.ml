(* A thin layer over the shared SplitMix64 core: [bits64] is
   [Splitmix.next] verbatim, so every committed stream (search walks,
   generated graphs) is unchanged by the extraction. *)

type t = Splitmix.t

let create = Splitmix.create

let bits64 = Splitmix.next

let int g n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     small bounds used here, but we still mask to 62 bits to stay
     non-negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  v mod n

let float g x =
  if not (x > 0.0) then invalid_arg "Rng.float: bound must be positive";
  let v = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  x *. (v /. 9007199254740992.0) (* 2^53 *)

let bool g = Int64.logand (bits64 g) 1L = 1L

let pick g = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int g (List.length xs))

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
