module Qpo = Braid_planner.Qpo

type named = {
  label : string;
  description : string;
  config : Qpo.config;
}

let loose_coupling =
  {
    label = "loose";
    description = "loose coupling: one remote request per database goal, no reuse";
    config = Qpo.loose_coupling_config;
  }

let bermuda =
  {
    label = "bermuda";
    description = "BERMUDA-style result caching: reuse on exact query match only";
    config = Qpo.bermuda_config;
  }

let ceri =
  {
    label = "ceri";
    description = "CERI86-style caching of single-relation extensions";
    config = Qpo.ceri_config;
  }

let braid_no_advice =
  {
    label = "braid-sub";
    description = "BrAID subsumption caching, advice-driven features off";
    config = Qpo.no_advice_config;
  }

let braid =
  {
    label = "braid";
    description = "full BrAID: subsumption + advice (prefetch, generalization, pinning, indexing)";
    config = Qpo.braid_config;
  }

let all = [ loose_coupling; bermuda; ceri; braid_no_advice; braid ]

let of_label label =
  match List.find_opt (fun b -> b.label = label) all with
  | Some b -> Ok b
  | None ->
    Error
      (Printf.sprintf "unknown system %S; expected %s" label
         (String.concat ", " (List.map (fun b -> b.label) all)))
