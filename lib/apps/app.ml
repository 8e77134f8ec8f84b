open Orianna_fg
open Orianna_util

type t = {
  name : string;
  description : string;
  variable_dims : string * string * string;
  factor_kinds : string * string * string;
  graphs : Rng.t -> (string * Graph.t) list;
  mission : seed:int -> solver:[ `Software | `Compiled ] -> bool;
}

let mobile_robot =
  {
    name = "MobileRobot";
    description = "two-wheeled robot on a plane";
    variable_dims = ("3", "6", "3, 2");
    factor_kinds = ("LiDAR, GPS", "Collision-free, Smooth", "Dynamics");
    graphs = Mobile_robot.graphs;
    mission = Mobile_robot.mission;
  }

let manipulator =
  {
    name = "Manipulator";
    description = "two-link robot arm";
    variable_dims = ("2", "4", "2, 2");
    factor_kinds = ("Prior", "Collision-free, Smooth", "Dynamics");
    graphs = Manipulator.graphs;
    mission = Manipulator.mission;
  }

let auto_vehicle =
  {
    name = "AutoVehicle";
    description = "four-wheeled unmanned vehicle";
    variable_dims = ("3", "6", "5, 2");
    factor_kinds = ("LiDAR, GPS", "Collision-free, Kinematics", "Kinematics, Dynamics");
    graphs = Auto_vehicle.graphs;
    mission = Auto_vehicle.mission;
  }

let quadrotor =
  {
    name = "Quadrotor";
    description = "four-rotor micro drone";
    variable_dims = ("6", "12", "12, 5");
    factor_kinds = ("Camera, IMU", "Collision-free, Kinematics", "Kinematics, Dynamics");
    graphs = Quadrotor.graphs;
    mission = Quadrotor.mission;
  }

let all = [ mobile_robot; manipulator; auto_vehicle; quadrotor ]

let find name =
  let target = String.lowercase_ascii name in
  match List.find_opt (fun a -> String.lowercase_ascii a.name = target) all with
  | Some a -> a
  | None -> raise Not_found

let names = List.map (fun a -> a.name) all
let try_names what = Printf.sprintf "%s (try: %s)" what (String.concat ", " names)

let lookup name =
  match find name with
  | a -> Ok a
  | exception Not_found -> Error (try_names (Printf.sprintf "unknown application %S" name))

let select spec =
  match List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' spec)) with
  | [] -> Error (try_names "no applications selected")
  | [ s ] when String.lowercase_ascii s = "all" -> Ok names
  | picked ->
      List.fold_right
        (fun s acc -> Result.bind (lookup s) (fun a -> Result.map (List.cons a.name) acc))
        picked (Ok [])

let success_rate app ~solver ~missions =
  let ok = ref 0 in
  for seed = 1 to missions do
    if app.mission ~seed ~solver then incr ok
  done;
  float_of_int !ok /. float_of_int missions
