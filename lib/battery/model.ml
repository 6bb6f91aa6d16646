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

type stepper = {
  state_dim : int;
  fresh : unit -> stepper_ops;
}

type t = {
  name : string;
  sigma : Profile.t -> at:float -> float;
  incremental : incremental option;
  stepper : stepper option;
  decay : decay option;
}

let sigma_end m p = m.sigma p ~at:(Profile.length p)
