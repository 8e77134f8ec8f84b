(** Registry of the four benchmark applications (Tbl. 4). *)

open Orianna_fg
open Orianna_util

type t = {
  name : string;
  description : string;
  variable_dims : string * string * string;
      (** localization / planning / control variable dimensions, as
          printed in Tbl. 4 *)
  factor_kinds : string * string * string;  (** factor types per algorithm *)
  graphs : Rng.t -> (string * Graph.t) list;
      (** one frame: the localization, planning and control graphs *)
  mission : seed:int -> solver:[ `Software | `Compiled ] -> bool;
}

val mobile_robot : t
val manipulator : t
val auto_vehicle : t
val quadrotor : t

val all : t list

val names : string list
(** Registry names of {!all}, in order. *)

val find : string -> t
(** Case-insensitive lookup; raises [Not_found]. *)

val lookup : string -> (t, string) result
(** {!find}, with an [Error] that names every registered app. *)

val select : string -> (string list, string) result
(** An apps selection: ["all"] (any case) for every registered app, or
    a comma-separated list of names (case-insensitive, blanks around
    names ignored).  [Ok] carries registry names in the given order;
    [Error] names the registered apps on an unknown or empty
    selection. *)

val success_rate : t -> solver:[ `Software | `Compiled ] -> missions:int -> float
(** Fraction of successful missions over seeds 1..missions (Tbl. 5). *)
