type kind =
  | Send
  | Deliver
  | Drop
  | Fault
  | Journal
  | Span_start
  | Span_end
  | Timer

let kind_code = function
  | Send -> 1
  | Deliver -> 2
  | Drop -> 3
  | Fault -> 4
  | Journal -> 5
  | Span_start -> 6
  | Span_end -> 7
  | Timer -> 8

let kind_of_code = function
  | 1 -> Some Send
  | 2 -> Some Deliver
  | 3 -> Some Drop
  | 4 -> Some Fault
  | 5 -> Some Journal
  | 6 -> Some Span_start
  | 7 -> Some Span_end
  | 8 -> Some Timer
  | _ -> None

let kind_name = function
  | Send -> "send"
  | Deliver -> "deliver"
  | Drop -> "drop"
  | Fault -> "fault"
  | Journal -> "journal"
  | Span_start -> "span_start"
  | Span_end -> "span_end"
  | Timer -> "timer"

type event = {
  ev_kind : kind;
  ev_at : float;
  ev_a : int;
  ev_b : int;
  ev_tag : string;
  ev_payload : string;
}

(* Fixed body prefix: kind u8, tag u16, a i32, b i32, at f64, plen u16. *)
let header_bytes = 1 + 2 + 4 + 4 + 8 + 2
let max_payload = 255

(* A ring's buffer starts empty and grows as records arrive, up to
   [cap] bytes; only a ring full at [cap] evicts. So the live bytes,
   the counters and the dump are those of a ring allocated at [cap]. *)
type ring = {
  mutable data : Bytes.t;
  mutable head : int;  (** offset of the oldest record's length prefix *)
  mutable used : int;  (** live bytes *)
  mutable r_written : int;
  mutable r_evicted : int;
}

type t = {
  cap : int;
  n_sites : int;
  rings : ring array;  (** index 0 = global ring, index i+1 = site i *)
  intern : (string, int) Hashtbl.t;
  mutable rev : string array;
  mutable n_strings : int;
  scratch : Bytes.t;
}

let create ?(capacity = 32768) ~n_sites () =
  if capacity < 1024 then invalid_arg "Flight.create: capacity < 1024";
  if n_sites < 0 then invalid_arg "Flight.create: n_sites";
  {
    cap = capacity;
    n_sites;
    rings =
      Array.init (n_sites + 1) (fun _ ->
          {
            data = Bytes.empty;
            head = 0;
            used = 0;
            r_written = 0;
            r_evicted = 0;
          });
    intern = Hashtbl.create 64;
    rev = Array.make 64 "";
    n_strings = 0;
    scratch = Bytes.create (2 + header_bytes + max_payload);
  }

let capacity t = t.cap
let n_sites t = t.n_sites

let intern t s =
  match Hashtbl.find_opt t.intern s with
  | Some i -> i
  | None ->
      let i = t.n_strings in
      if i > 0xFFFF then 0 (* tag field saturates; id 0 always exists *)
      else begin
        if i = Array.length t.rev then begin
          let grown = Array.make (2 * i) "" in
          Array.blit t.rev 0 grown 0 i;
          t.rev <- grown
        end;
        t.rev.(i) <- s;
        t.n_strings <- i + 1;
        Hashtbl.add t.intern s i;
        i
      end

let ring_of t ~site =
  if site < -1 || site >= t.n_sites then None else Some t.rings.(site + 1)

let ring_u8 r pos = Bytes.get_uint8 r.data (pos mod Bytes.length r.data)

let ring_rec_len r pos = ring_u8 r pos lor (ring_u8 r (pos + 1) lsl 8)

(* A ring's first buffer holds a few records; each growth quadruples
   it. A ring that fills up leaves its smaller buffers as garbage:
   two thirds of its capacity, where doubling would leave all of it
   (on 64-site runs, where every ring fills, doubling raised the peak
   heap by 2%). *)
let min_buffer = 256
let growth = 4

let record t ~site ~at ~kind ?(a = -1) ?(b = -1) ?(tag = "") ?(payload = "")
    () =
  match ring_of t ~site with
  | None -> ()
  | Some r ->
      (* Intern the empty string first so tag id 0 is always valid. *)
      if t.n_strings = 0 then ignore (intern t "");
      let tag_id = intern t tag in
      let plen = min max_payload (String.length payload) in
      let blen = header_bytes + plen in
      let sz = 2 + blen in
      let s = t.scratch in
      Bytes.set_uint16_le s 0 blen;
      Bytes.set_uint8 s 2 (kind_code kind);
      (* i32 fields as u16 pairs: no boxed Int32 on the steady path *)
      Bytes.set_uint16_le s 3 tag_id;
      Bytes.set_uint16_le s 5 (a land 0xFFFF);
      Bytes.set_uint16_le s 7 ((a asr 16) land 0xFFFF);
      Bytes.set_uint16_le s 9 (b land 0xFFFF);
      Bytes.set_uint16_le s 11 ((b asr 16) land 0xFFFF);
      Bytes.set_int64_le s 13 (Int64.bits_of_float at);
      Bytes.set_uint16_le s 21 plen;
      Bytes.blit_string payload 0 s 23 plen;
      let len = Bytes.length r.data in
      (* A ring below capacity has never evicted, so its live region
         is the prefix [0, used): growing copies it as is. *)
      if len - r.used < sz && len < t.cap then begin
        let size =
          min t.cap (max (r.used + sz) (max min_buffer (growth * len)))
        in
        r.data <- Bytes.extend r.data 0 (size - len)
      end;
      let len = Bytes.length r.data in
      (* Evict whole oldest records until the new one fits. *)
      while len - r.used < sz do
        let old = 2 + ring_rec_len r r.head in
        r.head <- (r.head + old) mod len;
        r.used <- r.used - old;
        r.r_evicted <- r.r_evicted + 1
      done;
      (* At most two blits: up to the physical end, then the wrap. *)
      let tail = (r.head + r.used) mod len in
      let first = min sz (len - tail) in
      Bytes.blit s 0 r.data tail first;
      if sz > first then Bytes.blit s first r.data 0 (sz - first);
      r.used <- r.used + sz;
      r.r_written <- r.r_written + 1

let written t ~site =
  match ring_of t ~site with Some r -> r.r_written | None -> 0

let evicted t ~site =
  match ring_of t ~site with Some r -> r.r_evicted | None -> 0

(* --- dump -------------------------------------------------------------- *)

let schema = "dgc.flight/1"

type ring_dump = {
  rd_site : int;
  rd_written : int;
  rd_evicted : int;
  rd_data : string;  (** linearized live region, oldest record first *)
}

type dump = {
  d_reason : string;
  d_at : float;
  d_capacity : int;
  d_strings : string array;
  d_rings : ring_dump list;
}

let reason d = d.d_reason
let dump_at d = d.d_at
let sites d = List.map (fun r -> r.rd_site) d.d_rings

let dump t ~reason ~at =
  let linearize r =
    String.init r.used (fun i -> Char.chr (ring_u8 r (r.head + i)))
  in
  {
    d_reason = reason;
    d_at = at;
    d_capacity = t.cap;
    d_strings = Array.sub t.rev 0 t.n_strings;
    d_rings =
      List.init (t.n_sites + 1) (fun i ->
          let r = t.rings.(i) in
          {
            rd_site = i - 1;
            rd_written = r.r_written;
            rd_evicted = r.r_evicted;
            rd_data = linearize r;
          });
  }

(* --- decoding ---------------------------------------------------------- *)

let decode_frames ~strings data =
  let len = String.length data in
  let u8 p = Char.code data.[p] in
  let u16 p = u8 p lor (u8 (p + 1) lsl 8) in
  let i32 p =
    let v =
      Int32.logor
        (Int32.of_int (u16 p))
        (Int32.shift_left (Int32.of_int (u16 (p + 2))) 16)
    in
    Int32.to_int v
  in
  let f64 p =
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 (p + i)))
    done;
    Int64.float_of_bits !v
  in
  let rec go pos acc =
    if pos = len then Ok (List.rev acc)
    else if pos + 2 > len then Error "truncated record length"
    else begin
      let blen = u16 pos in
      let body = pos + 2 in
      if body + blen > len then Error "truncated record body"
      else if blen < header_bytes then Error "record body too short"
      else
        match kind_of_code (u8 body) with
        | None -> Error (Printf.sprintf "unknown record kind %d" (u8 body))
        | Some ev_kind ->
            let tag_id = u16 (body + 1) in
            if tag_id >= Array.length strings then
              Error (Printf.sprintf "dangling string id %d" tag_id)
            else begin
              let plen = u16 (body + 19) in
              if blen <> header_bytes + plen then
                Error "record length disagrees with payload length"
              else
                let ev =
                  {
                    ev_kind;
                    ev_at = f64 (body + 11);
                    ev_a = i32 (body + 3);
                    ev_b = i32 (body + 7);
                    ev_tag = strings.(tag_id);
                    ev_payload = String.sub data (body + 21) plen;
                  }
                in
                go (body + blen) (ev :: acc)
            end
    end
  in
  go 0 []

let events d ~site =
  match List.find_opt (fun r -> r.rd_site = site) d.d_rings with
  | None -> []
  | Some r -> (
      match decode_frames ~strings:d.d_strings r.rd_data with
      | Ok evs -> evs
      | Error _ -> [])

(* --- JSON -------------------------------------------------------------- *)

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then Error "odd-length hex"
  else
    let nib c =
      match c with
      | '0' .. '9' -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
      | _ -> Error (Printf.sprintf "bad hex character %C" c)
    in
    let buf = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Ok (Bytes.to_string buf)
      else
        match (nib h.[i], nib h.[i + 1]) with
        | Ok hi, Ok lo ->
            Bytes.set_uint8 buf (i / 2) ((hi lsl 4) lor lo);
            go (i + 2)
        | Error e, _ | _, Error e -> Error e
    in
    go 0

let to_json d =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("reason", Json.Str d.d_reason);
      ("at", Json.Float d.d_at);
      ("capacity", Json.Int d.d_capacity);
      ( "strings",
        Json.Arr (List.map (fun s -> Json.Str s) (Array.to_list d.d_strings))
      );
      ( "rings",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("site", Json.Int r.rd_site);
                   ("written", Json.Int r.rd_written);
                   ("evicted", Json.Int r.rd_evicted);
                   ("data", Json.Str (hex_of_string r.rd_data));
                 ])
             d.d_rings) );
    ]

let of_json j =
  let ( let* ) = Result.bind in
  Result.map_error (( ^ ) "flight: ")
    (let* () = Json.expect_schema schema j in
     let* d_reason = Json.str_field "reason" j in
     let* d_at = Json.float_field "at" j in
     let* d_capacity = Json.int_field "capacity" j in
     let* strings = Json.list_field "strings" j in
     let* strings =
       Json.list_map
         (fun s ->
           Option.to_result ~none:"non-string intern entry" (Json.to_str_opt s))
         strings
     in
     let strings = Array.of_list strings in
     let* rings = Json.list_field "rings" j in
     let* d_rings =
       Json.list_map
         (fun rj ->
           let* rd_site = Json.int_field "site" rj in
           let* rd_written = Json.int_field "written" rj in
           let* rd_evicted = Json.int_field "evicted" rj in
           let* hex = Json.str_field "data" rj in
           let* rd_data = string_of_hex hex in
           (* Canonical hex only: re-serialization must be byte-identical. *)
           let* () =
             if hex_of_string rd_data = hex then Ok ()
             else Error "non-canonical hex"
           in
           let* _ = decode_frames ~strings rd_data in
           Ok { rd_site; rd_written; rd_evicted; rd_data })
         rings
     in
     Ok { d_reason; d_at; d_capacity; d_strings = strings; d_rings })
