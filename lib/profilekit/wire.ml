type error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated of { expected : int; got : int }
  | Overlong of { expected : int; got : int }

exception Error of error

let current_version = 1
let magic = "CTPL"
let header_bytes = 10
let record_bytes = 10

let error_to_string = function
  | Bad_magic -> "probe batch: bad magic (not a CTPL batch)"
  | Unsupported_version v ->
      Printf.sprintf "probe batch: unsupported format version %d (this build speaks %d)"
        v current_version
  | Truncated { expected; got } ->
      Printf.sprintf "probe batch: truncated (%d bytes expected, %d present)" expected
        got
  | Overlong { expected; got } ->
      Printf.sprintf "probe batch: over-long (%d bytes expected, %d present)" expected got


(* Big-endian fixed-width fields.  [cycles] gets 48 bits: horizons are
   simulated cycle counts and can exceed 32 bits long before any mote
   field fails; pc and value are 16-bit machine words already. *)

let put_be b width v =
  for i = width - 1 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_be s off width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let encode records =
  let n = List.length records in
  let b = Buffer.create (header_bytes + (n * record_bytes)) in
  Buffer.add_string b magic;
  put_be b 2 current_version;
  put_be b 4 n;
  List.iter
    (fun { Mote_machine.Devices.pc; cycles; value } ->
      put_be b 2 (pc land 0xffff);
      put_be b 6 (cycles land 0xffff_ffff_ffff);
      put_be b 2 (value land 0xffff))
    records;
  Buffer.contents b

let decode s =
  let len = String.length s in
  if len < header_bytes then
    if len >= 4 && String.sub s 0 4 <> magic then Result.Error Bad_magic
    else Result.Error (Truncated { expected = header_bytes; got = len })
  else if String.sub s 0 4 <> magic then Result.Error Bad_magic
  else
    let version = get_be s 4 2 in
    if version <> current_version then Result.Error (Unsupported_version version)
    else
      let count = get_be s 6 4 in
      let expected = header_bytes + (count * record_bytes) in
      if len < expected then Result.Error (Truncated { expected; got = len })
      else if len > expected then Result.Error (Overlong { expected; got = len })
      else
        let rec go i acc =
          if i < 0 then Result.Ok acc
          else
            let off = header_bytes + (i * record_bytes) in
            let r =
              {
                Mote_machine.Devices.pc = get_be s off 2;
                cycles = get_be s (off + 2) 6;
                value = get_be s (off + 8) 2;
              }
            in
            go (i - 1) (r :: acc)
        in
        go (count - 1) []

let decode_exn s = match decode s with Ok r -> r | Result.Error e -> raise (Error e)
