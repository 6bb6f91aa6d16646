type channels = {
  term : current:float -> duration:float -> tail:float -> float;
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

type kernel =
  | Channels of channels
  | Stepper of stepper

type t = {
  name : string;
  sigma : Profile.t -> at:float -> float;
  kernel : kernel;
}

let sigma_end m p = m.sigma p ~at:(Profile.length p)
