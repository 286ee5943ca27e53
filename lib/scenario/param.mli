(** Typed named parameters for the scenario registries.

    Every algorithm and world registered in {!Algo_registry} /
    {!World_registry} publishes a {e schema}: a list of parameter specs,
    each carrying a documentation string and a typed default. A concrete
    scenario then supplies {e bindings} — a subset of the schema's keys
    with values of the matching type — and constructors read each
    parameter through the schema, falling back to the default. This is
    what lets run specs be serialized, validated and listed (`explore
    list`) without any per-algorithm plumbing. *)

type value = Int of int | Float of float | Bool of bool | String of string

type binding = string * value

(** The values a parameter accepts beyond its type — declared next to
    the schema entry, enforced by {!validate} and printed by
    {!describe_schema}, so a constructor never meets a value it rejects. *)
type accepts =
  | Any
  | Ints of int * int  (** inclusive range; [max_int] prints as [>= lo] *)
  | Floats of float * float
      (** inclusive range (NaN is outside every range); [Float.max_float]
          prints as [>= lo] *)
  | One_of of string list

type spec = { key : string; doc : string; default : value; accepts : accepts }
(** The default also fixes the parameter's type: a binding for [key]
    must carry the same [value] constructor. *)

val spec : ?accepts:accepts -> string -> value -> string -> spec
(** [spec key default doc ~accepts]; [accepts] defaults to [Any]. *)

val canon : binding list -> binding list
(** Sort bindings by key (the canonical form used by the JSON codec, so
    that decode ∘ encode is the identity on canonical specs).
    @raise Invalid_argument on a duplicate key. *)

val validate : schema:spec list -> binding list -> (unit, string) result
(** Every bound key must exist in the schema with a matching value
    type and a value its [accepts] admits; the error for the latter
    reads [KEY must be in [LO, HI] (got V)]. *)

(** {2 Schema-checked accessors}

    All raise [Invalid_argument] if [key] is not in the schema or the
    bound value has the wrong type — a registry-construction bug, not
    user input error (user input is caught by {!validate} first). *)

val get_int : schema:spec list -> binding list -> string -> int
val get_bool : schema:spec list -> binding list -> string -> bool
val get_string : schema:spec list -> binding list -> string -> string
val get_float : schema:spec list -> binding list -> string -> float

(** {2 Rendering and JSON} *)

val describe_schema : spec list -> string
(** One line per parameter: [key : type = default — doc (accepted
    values)]. Empty string for an empty schema. *)

val bindings_to_string : binding list -> string
(** Compact [k=v,k=v] rendering for labels. *)

val to_json : binding list -> Bfdn_obs.Json.t
(** An object with one member per binding, in canonical (sorted) key
    order. *)

val of_json : Bfdn_obs.Json.t -> (binding list, string) result
(** Inverse of {!to_json}; accepts any member order and returns
    canonical bindings. *)

val json_of_schema : spec list -> Bfdn_obs.Json.t
(** Machine-readable schema dump: a list of
    [{accepts, default, doc, key, type}] objects in schema order
    ([accepts] as {!describe_schema} prints it, only when not [Any]) —
    the shape served by [GET /registry] and [explore list --json]. *)
