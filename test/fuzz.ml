(* Input corruption shared by the parsers' no-crash properties: overwrite
   one byte with a printable character, a space or a newline. *)

let mutate ~rng text =
  let n = String.length text in
  if n = 0 then text
  else begin
    let b = Bytes.of_string text in
    let pos = Batsched_numeric.Rng.int rng n in
    (match Batsched_numeric.Rng.int rng 3 with
    | 0 -> Bytes.set b pos (Char.chr (32 + Batsched_numeric.Rng.int rng 95))
    | 1 -> Bytes.set b pos ' '
    | _ -> Bytes.set b pos '\n');
    Bytes.to_string b
  end
