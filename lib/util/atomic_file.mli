(** The one way to write an output file in place of a previous one.

    The contents go to [path ^ ".tmp"] beside the final name, which is
    then renamed over [path]: a reader never sees a torn file, and a
    failed write leaves the previous file intact and no temporary file
    behind. Reports, postmortem bundles, dumped specs and dumped trees
    are all written this way. *)

val write : path:string -> string -> unit
(** Replace the contents of [path] by the string.
    @raise Sys_error when the file cannot be written; [path] is then
    untouched and the temporary file removed. *)
