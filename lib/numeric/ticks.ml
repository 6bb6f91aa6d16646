type t = int

let per_minute = 10

let check name x =
  if not (Float.is_finite x) || x < 0.0 then
    invalid_arg ("Ticks." ^ name ^ ": negative or non-finite")

let of_minutes_ceil x =
  check "of_minutes_ceil" x;
  int_of_float (Float.ceil ((x *. float_of_int per_minute) -. 1e-9))

let of_minutes_floor x =
  check "of_minutes_floor" x;
  int_of_float (Float.floor ((x *. float_of_int per_minute) +. 1e-9))
