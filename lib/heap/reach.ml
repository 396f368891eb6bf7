open Dgc_prelude

let is_local (d : Dense.t) oid = Site_id.equal (Oid.site oid) d.Dense.d_site

exception Found

let closure d ~from =
  let bound = d.Dense.d_bound in
  let visited = Bytes.make (max bound 1) '\000' in
  let locals = ref Oid.Set.empty in
  let remotes = ref Oid.Set.empty in
  let stack = ref [] in
  let visit_idx i =
    if Bytes.get visited i = '\000' then begin
      Bytes.set visited i '\001';
      locals := Oid.Set.add (Oid.make ~site:d.Dense.d_site ~index:i) !locals;
      stack := i :: !stack
    end
  in
  List.iter
    (fun r ->
      if is_local d r then begin
        let i = Oid.index r in
        if Dense.present d i then visit_idx i
      end
      else remotes := Oid.Set.add r !remotes)
    from;
  let rec drain () =
    match !stack with
    | [] -> ()
    | i :: tl ->
        stack := tl;
        for k = d.Dense.d_start.(i) to d.Dense.d_start.(i + 1) - 1 do
          let c = d.Dense.d_codes.(k) in
          if c >= 0 then begin
            if Bytes.get d.Dense.d_present c <> '\000' then visit_idx c
          end
          else begin
            let r = d.Dense.d_pool.(-c - 1) in
            if not (is_local d r) then remotes := Oid.Set.add r !remotes
          end
        done;
        drain ()
  in
  drain ();
  (!locals, !remotes)

(* Membership-test DFS with early exit: [dst] is reachable iff it is
   [src], or occurs among the fields of some locally-reachable present
   object (that covers present locals — they are visited via a field —
   dangling locals, and remotes alike). *)
let reaches d ~src ~dst =
  if Oid.equal src dst then true
  else begin
    let bound = d.Dense.d_bound in
    if not (is_local d src && Dense.present d (Oid.index src)) then false
    else begin
      (* dst as a code: a local in-bound target compares by index, any
         other target compares by oid against the pool. *)
      let dst_idx =
        if is_local d dst && Oid.index dst >= 0 && Oid.index dst < bound then
          Oid.index dst
        else -1
      in
      let visited = Bytes.make (max bound 1) '\000' in
      let stack = ref [ Oid.index src ] in
      Bytes.set visited (Oid.index src) '\001';
      try
        let rec drain () =
          match !stack with
          | [] -> false
          | i :: tl ->
              stack := tl;
              for k = d.Dense.d_start.(i) to d.Dense.d_start.(i + 1) - 1 do
                let c = d.Dense.d_codes.(k) in
                if c >= 0 then begin
                  if c = dst_idx then raise Found;
                  if
                    Bytes.get d.Dense.d_present c <> '\000'
                    && Bytes.get visited c = '\000'
                  then begin
                    Bytes.set visited c '\001';
                    stack := c :: !stack
                  end
                end
                else if dst_idx < 0 && Oid.equal d.Dense.d_pool.(-c - 1) dst
                then raise Found
              done;
              drain ()
        in
        drain ()
      with Found -> true
    end
  end
