type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ---------- writer ---------- *)

(* Numbers are formatted into a small scratch [Bytes] and appended to
   the buffer in one blit: no Printf, no intermediate string. *)

let digit_pairs =
  "000102030405060708091011121314151617181920212223242526272829\
   303132333435363738394041424344454647484950515253545556575859\
   606162636465666768697071727374757677787980818283848586878889\
   90919293949596979899"

(* Writes the last [count] decimal digits of [n >= 0], zero-padded, so
   that they end just before [stop]; two at a time. *)
let put_digits s stop n count =
  let n = ref n and stop = ref stop in
  for _ = 1 to count / 2 do
    let q = !n / 100 in
    let r = 2 * (!n - (100 * q)) in
    Bytes.unsafe_set s (!stop - 2) (String.unsafe_get digit_pairs r);
    Bytes.unsafe_set s (!stop - 1) (String.unsafe_get digit_pairs (r + 1));
    n := q;
    stop := !stop - 2
  done;
  if count land 1 = 1 then
    Bytes.unsafe_set s (!stop - 1) (Char.unsafe_chr (48 + (!n mod 10)))

let put_zeros s start count =
  for i = start to start + count - 1 do
    Bytes.unsafe_set s i '0'
  done

let pow10 = function
  | 0 -> 1
  | 1 -> 10
  | 2 -> 100
  | 3 -> 1_000
  | 4 -> 10_000
  | 5 -> 100_000
  | 6 -> 1_000_000
  | 7 -> 10_000_000
  | 8 -> 100_000_000
  | 9 -> 1_000_000_000
  | 10 -> 10_000_000_000
  | 11 -> 100_000_000_000
  | 12 -> 1_000_000_000_000
  | 13 -> 10_000_000_000_000
  | 14 -> 100_000_000_000_000
  | 15 -> 1_000_000_000_000_000
  | _ -> 10_000_000_000_000_000

(* Digits in [n]; 1 for 0. *)
let digit_count n =
  if n < 100_000_000 then
    if n < 10_000 then
      if n < 100 then if n < 10 then 1 else 2 else if n < 1000 then 3 else 4
    else if n < 1_000_000 then if n < 100_000 then 5 else 6
    else if n < 10_000_000 then 7
    else 8
  else if n < 10_000_000_000_000_000 then
    if n < 1_000_000_000_000 then
      if n < 10_000_000_000 then if n < 1_000_000_000 then 9 else 10
      else if n < 100_000_000_000 then 11
      else 12
    else if n < 100_000_000_000_000 then
      if n < 10_000_000_000_000 then 13 else 14
    else if n < 1_000_000_000_000_000 then 15
    else 16
  else if n < 100_000_000_000_000_000 then 17
  else if n < 1_000_000_000_000_000_000 then 18
  else 19

let add_int b i =
  let s = Bytes.create 20 in
  if i >= 0 then begin
    let len = digit_count i in
    put_digits s len i len;
    Buffer.add_subbytes b s 0 len
  end
  else begin
    Bytes.unsafe_set s 0 '-';
    (* [-i] overflows at [min_int]: write the last digit apart. *)
    let q = -(i / 10) and r = -(i mod 10) in
    let len = if q = 0 then 0 else digit_count q in
    put_digits s (1 + len) q len;
    Bytes.unsafe_set s (1 + len) (Char.unsafe_chr (48 + r));
    Buffer.add_subbytes b s 0 (len + 2)
  end

let rec clean s i n =
  i >= n
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && c >= ' ' && clean s (i + 1) n

let hex_digit n = Char.unsafe_chr (if n < 10 then 48 + n else 87 + n)

let rec add_escaped b s i n =
  if i < n then begin
    (match s.[i] with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | c when Char.code c < 0x20 ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b (hex_digit (Char.code c lsr 4));
        Buffer.add_char b (hex_digit (Char.code c land 15))
    | c -> Buffer.add_char b c);
    add_escaped b s (i + 1) n
  end

let escape_string b s =
  Buffer.add_char b '"';
  (* Keys and names are almost always clean: one blit. *)
  let n = String.length s in
  if clean s 0 n then Buffer.add_string b s else add_escaped b s 0 n;
  Buffer.add_char b '"'

(* Writes [d 10^e] (d > 0 without trailing zeros, [sign] 0 or 1 for a
   leading '-') in the notation of ECMAScript's Number.prototype.toString:
   plain for 1e-6 <= |v| < 1e21, [d.ddde±x] outside; an integral plain
   value gets a [.0] so the token re-reads as a float.  Returns the
   end of the token in [s]: at most 25 bytes (sign, "0.", 5 zeros and
   17 digits). *)
let put_decimal s ~sign d e =
  if sign = 1 then Bytes.unsafe_set s 0 '-';
  let len = digit_count d in
  let n = len + e in
  if len <= n && n <= 21 then begin
    put_digits s (sign + len) d len;
    put_zeros s (sign + len) (n - len);
    Bytes.unsafe_set s (sign + n) '.';
    Bytes.unsafe_set s (sign + n + 1) '0';
    sign + n + 2
  end
  else if 0 < n && n <= 21 then begin
    let scale = pow10 (len - n) in
    put_digits s (sign + n) (d / scale) n;
    Bytes.unsafe_set s (sign + n) '.';
    put_digits s (sign + len + 1) (d mod scale) (len - n);
    sign + len + 1
  end
  else if -6 < n && n <= 0 then begin
    Bytes.unsafe_set s sign '0';
    Bytes.unsafe_set s (sign + 1) '.';
    put_zeros s (sign + 2) (-n);
    put_digits s (sign + 2 - n + len) d len;
    sign + 2 - n + len
  end
  else begin
    let scale = pow10 (len - 1) in
    Bytes.unsafe_set s sign (Char.unsafe_chr (48 + (d / scale)));
    let p =
      if len = 1 then sign + 1
      else begin
        Bytes.unsafe_set s (sign + 1) '.';
        put_digits s (sign + len + 1) (d mod scale) (len - 1);
        sign + len + 1
      end
    in
    Bytes.unsafe_set s p 'e';
    let x = n - 1 in
    let p = if x < 0 then p + 2 else p + 1 in
    if x < 0 then Bytes.unsafe_set s (p - 1) '-';
    let xl = digit_count (abs x) in
    put_digits s (p + xl) (abs x) xl;
    p + xl
  end

let rec put_stripped s ~sign d e =
  if d mod 10 = 0 then put_stripped s ~sign (d / 10) (e + 1)
  else put_decimal s ~sign d e

(* Shortest round-trip doubles, after R. Giulietti, "The Schubfach way
   to render doubles" (2020), with integer arithmetic only.  A finite
   nonzero |v| = c 2^q is printed as the decimal d 10^e with the fewest
   significant digits that reads back as v; among several, the one
   closest to v (ties to an even last digit).  Unlike Java's
   Double.toString, a one-digit answer is not widened to two, so the
   smallest subnormal prints as 5e-324. *)

(* The table of g(k) = floor(10^-k 2^-r) + 1, 2^125 <= g < 2^126, for
   k in [Json_pow10.k_min, Json_pow10.k_max], as two little-endian
   63-bit halves per k (see scripts/gen_pow10.py). *)
let pow10_table =
  let hex = Json_pow10.hex in
  let nibble i =
    let c = Char.code hex.[i] in
    if c <= Char.code '9' then c - Char.code '0' else c - Char.code 'a' + 10
  in
  let entries = Json_pow10.k_max - Json_pow10.k_min + 1 in
  String.init (entries * 16) (fun j ->
      (* Byte [j] is byte [j mod 8] (least significant first) of half
         [j / 8]; a half is 16 hex digits, most significant first. *)
      let half = j / 8 and byte = j mod 8 in
      let at = (half * 16) + ((7 - byte) * 2) in
      Char.chr ((nibble at lsl 4) lor nibble (at + 1)))

let mask30 = 0x3fff_ffff

(* [cp g] for g = g1 2^63 + g0 (63-bit halves as 30-bit limbs a0..a2
   and b0..b2) and cp < 2^60 (limbs c0, c1), reduced as in the paper's
   section 9.9 (Java's DoubleToDecimal.rop): W = floor (g1 cp / 2) +
   floor (g0 cp / 2^64), whose dropped low bits cancel the +1 in g on
   exact products; the result is floor (W / 2^63) rounded to odd, its
   lowest bit set when W mod 2^63 is not zero.  Every partial sum stays
   below 2^62. *)
let rop a0 a1 a2 b0 b1 b2 cp =
  let c0 = cp land mask30 and c1 = cp lsr 30 in
  (* g1 cp = A3 2^90 + A2 2^60 + A1 2^30 + A0 *)
  let t = c0 * a0 in
  let a_0 = t land mask30 in
  let t = (t lsr 30) + (c0 * a1) + (c1 * a0) in
  let a_1 = t land mask30 in
  let t = (t lsr 30) + (c0 * a2) + (c1 * a1) in
  let a_2 = t land mask30 in
  let a_3 = (t lsr 30) + (c1 * a2) in
  (* floor (g0 cp / 2^64) *)
  let t = (c0 * b0) lsr 30 in
  let t = (t + (c0 * b1) + (c1 * b0)) lsr 30 in
  let t = t + (c0 * b2) + (c1 * b1) in
  let b_high = ((t land mask30) lsr 4) + (((t lsr 30) + (c1 * b2)) lsl 26) in
  (* floor (g1 cp / 2) = a_high 2^63 + (nibble 2^59 + a_low) *)
  let a_high = (a_2 lsr 4) + (a_3 lsl 26) in
  let a_low = (a_0 lsr 1) + (a_1 lsl 29) in
  let sum = a_low + b_high in
  let top = (a_2 land 15) + (sum lsr 59) in
  let floor = a_high + (top lsr 4) in
  if (top land 15) lor (sum land 0x7ff_ffff_ffff_ffff) = 0 then floor
  else floor lor 1

(* floor (log10 (2^e)), floor (log10 (3/4 2^e)) and floor (log2 (10^e)),
   exact over the exponents of doubles. *)
let flog10_pow2 e = (e * 661_971_961_083) asr 41

let flog10_three_quarters_pow2 e =
  ((e * 661_971_961_083) - 274_743_187_321) asr 41

let flog2_pow10 e = (e * 913_124_641_741) asr 38
let c_min = 1 lsl 52
let q_min = -1074

(* Section 9 of the paper: the shortest decimal in the rounding
   interval of c 2^q, whose end points belong to it iff c is even. *)
let put_schubfach s ~sign q c =
  let out = c land 1 in
  let cb = c lsl 2 in
  let cbr = cb + 2 in
  let regular = c <> c_min || q = q_min in
  let cbl = if regular then cb - 2 else cb - 1 in
  let k = if regular then flog10_pow2 q else flog10_three_quarters_pow2 q in
  (* h is 2..5, so cbr 2^h < 2^60 *)
  let h = q + flog2_pow10 (-k) + 2 in
  let at = (k - Json_pow10.k_min) * 16 in
  let hi = Int64.to_int (String.get_int64_le pow10_table at) in
  let lo = Int64.to_int (String.get_int64_le pow10_table (at + 8)) in
  let a0 = hi land mask30 and a1 = (hi lsr 30) land mask30 and a2 = hi lsr 60 in
  let b0 = lo land mask30 and b1 = (lo lsr 30) land mask30 and b2 = lo lsr 60 in
  let vb = rop a0 a1 a2 b0 b1 b2 (cb lsl h) in
  let vbl = rop a0 a1 a2 b0 b1 b2 (cbl lsl h) in
  let vbr = rop a0 a1 a2 b0 b1 b2 (cbr lsl h) in
  let d = vb asr 2 in
  (* One digit fewer, when d has one to drop: at most one multiple of
     10^(k+1) fits in the interval, which is narrower than 10^(k+1). *)
  let sp10 = 10 * (d / 10) in
  let tp10 = sp10 + 10 in
  if d >= 10 && vbl + out <= sp10 lsl 2 then put_stripped s ~sign sp10 k
  else if d >= 10 && (tp10 lsl 2) + out <= vbr then
    put_stripped s ~sign tp10 k
  else begin
    (* At least one of d 10^k and (d + 1) 10^k lies in the interval. *)
    let t = d + 1 in
    let uin = vbl + out <= d lsl 2 and win = (t lsl 2) + out <= vbr in
    let closer_d =
      let cmp = vb - ((d + t) lsl 1) in
      cmp < 0 || (cmp = 0 && d land 1 = 0)
    in
    put_stripped s ~sign (if uin && ((not win) || closer_d) then d else t) k
  end

(* Writes the token of [f] into [s] (32 bytes); returns its end. *)
let put_float s f =
  if not (Float.is_finite f) then begin
    (* RFC 8259 has no inf/nan; callers treat [null] as "not measured". *)
    Bytes.blit_string "null" 0 s 0 4;
    4
  end
  else begin
    let bits = Int64.bits_of_float f in
    let sign = Int64.to_int (Int64.shift_right_logical bits 63) in
    (* The 63 low bits: biased exponent and fraction. *)
    let bits = Int64.to_int bits in
    let t = bits land (c_min - 1) in
    let bq = (bits lsr 52) land 0x7ff in
    if bq = 0 then
      if t = 0 then begin
        if sign = 1 then Bytes.unsafe_set s 0 '-';
        Bytes.blit_string "0.0" 0 s sign 3;
        sign + 3
      end
      else put_schubfach s ~sign q_min t
    else begin
      let c = c_min lor t in
      let mq = 1075 - bq in
      (* Integral values below 2^53 print as themselves. *)
      if 0 < mq && mq < 53 && (c asr mq) lsl mq = c then
        put_stripped s ~sign (c asr mq) 0
      else put_schubfach s ~sign (-mq) c
    end
  end

let add_float b f =
  let s = Bytes.create 32 in
  Buffer.add_subbytes b s 0 (put_float s f)

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> add_int b i
  | Float f -> add_float b f
  | String s -> escape_string b s
  | List [] -> Buffer.add_string b "[]"
  | List (first :: rest) ->
      Buffer.add_char b '[';
      write b first;
      List.iter
        (fun item ->
          Buffer.add_char b ',';
          write b item)
        rest;
      Buffer.add_char b ']'
  | Assoc [] -> Buffer.add_string b "{}"
  | Assoc (first :: rest) ->
      Buffer.add_char b '{';
      write_field b first;
      List.iter
        (fun field ->
          Buffer.add_char b ',';
          write_field b field)
        rest;
      Buffer.add_char b '}'

and write_field b (key, value) =
  escape_string b key;
  Buffer.add_char b ':';
  write b value

let to_buffer = write

let to_string = function
  | Float f ->
      let s = Bytes.create 32 in
      Bytes.sub_string s 0 (put_float s f)
  | json ->
      let b = Buffer.create 256 in
      write b json;
      Buffer.contents b

let rec pp ppf = function
  | (Null | Bool _ | Int _ | Float _ | String _) as atom ->
      Format.pp_print_string ppf (to_string atom)
  | List [] -> Format.pp_print_string ppf "[]"
  | List items ->
      Format.fprintf ppf "@[<v 2>[";
      List.iteri
        (fun i item ->
          if i > 0 then Format.fprintf ppf ",";
          Format.fprintf ppf "@,%a" pp item)
        items;
      Format.fprintf ppf "@]@,]"
  | Assoc [] -> Format.pp_print_string ppf "{}"
  | Assoc fields ->
      Format.fprintf ppf "@[<v 2>{";
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Format.fprintf ppf ",";
          Format.fprintf ppf "@,%s: %a"
            (let b = Buffer.create 16 in
             escape_string b key;
             Buffer.contents b)
            pp value)
        fields;
      Format.fprintf ppf "@]@,}"

(* ---------- parser ---------- *)

exception Malformed of string

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail "expected %C at offset %d, got %C" c !pos got
    | None -> fail "expected %C at offset %d, got end of input" c !pos
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail "invalid literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string at offset %d" !pos
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); loop ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); loop ()
          | Some '/' -> Buffer.add_char b '/'; advance (); loop ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); loop ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); loop ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); loop ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); loop ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); loop ()
          | Some 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub text (!pos + 1) 4 in
              let code =
                match int_of_string ("0x" ^ hex) with
                | code -> code
                | exception Failure _ ->
                    fail "invalid \\u escape %S at offset %d" hex !pos
              in
              (* Pass BMP code points through as UTF-8. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
                Buffer.add_char b
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
              end;
              pos := !pos + 5;
              loop ()
          | _ -> fail "invalid escape at offset %d" !pos)
      | Some c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  (* RFC 8259: -?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let is_digit () = match peek () with Some '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (is_digit ()) then
        fail "malformed number at offset %d: expected a digit at offset %d"
          start !pos;
      while is_digit () do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> fail "expected a value at offset %d" start);
    let fractional = ref false in
    if peek () = Some '.' then begin
      advance ();
      digits ();
      fractional := true
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ();
        fractional := true
    | _ -> ());
    let token = String.sub text start (!pos - start) in
    if !fractional then
      match float_of_string_opt token with
      | Some f -> Float f
      | None -> fail "malformed number %S at offset %d" token start
    else
      match int_of_string_opt token with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt token with
          | Some f -> Float f
          | None -> fail "malformed number %S at offset %d" token start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input at offset %d" !pos
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Assoc []
        end
        else begin
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            (key, value)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Assoc (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match
    let value = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage at offset %d" !pos;
    value
  with
  | value -> Ok value
  | exception Malformed message -> Error message

let member key = function
  | Assoc fields -> List.assoc_opt key fields
  | _ -> None
