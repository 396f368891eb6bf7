open Dgc_heap
open Dgc_rts

let free eng site dead =
  if (Engine.config eng).Config.oracle_checks then
    Dgc_oracle.Oracle.check_would_free eng site.Site.id dead;
  Heap.free site.Site.heap dead

let sweep eng site ~keep =
  Heap.indices site.Site.heap
  |> List.filter (fun index -> not (keep (Oid.make ~site:site.Site.id ~index)))
  |> free eng site
