let write ~path contents =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out tmp in
    (try
       output_string oc contents;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
