open Dgc_prelude

type t = { dense : Dense.t; roots : Oid.t list }

let take heap =
  { dense = Dense.of_heap heap; roots = Heap.persistent_roots heap }

let dense t = t.dense
let site t = Dense.site t.dense

let mem t oid =
  Site_id.equal (Oid.site oid) (site t)
  && Dense.present t.dense (Oid.index oid)

let fields t oid =
  if Site_id.equal (Oid.site oid) (site t) then
    Dense.fields t.dense (Oid.index oid)
  else []

let persistent_roots t = t.roots
let alloc_clock t = Dense.bound t.dense
let object_count t = Dense.object_count t.dense
