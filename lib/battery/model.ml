type incremental = {
  term : current:float -> duration:float -> tail:float -> float;
  tail_sensitive : bool;
}

type decay = {
  rates : float array;
  weights : current:float -> duration:float -> float array -> unit;
  charge : current:float -> duration:float -> float;
}

type stepper_ops = {
  start : float array -> unit;
  advance : float array -> current:float -> duration:float -> unit;
  observe : float array -> float;
}

let lane_count = 4

type lane_group = {
  state : float array;
  current : float array;
  duration : float array;
  sigma : float array;
  load : int -> float array -> unit;
  span : int -> int;
  run : int -> unit;
  observe : int -> unit;
}

type lanes = {
  params : float array;
  group : unit -> lane_group;
}

type stepper = {
  state_dim : int;
  fresh : unit -> stepper_ops;
  lanes : lanes;
}

type t = {
  name : string;
  sigma : Profile.t -> at:float -> float;
  incremental : incremental option;
  stepper : stepper option;
  decay : decay option;
}

let sigma_end m p = m.sigma p ~at:(Profile.length p)
