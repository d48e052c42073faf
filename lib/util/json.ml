type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing --------------------------------------------------- *)

let escape = Trace.json_escape

(* The digits of [n <= 0], written straight into the buffer: no format
   parsing and no string per int, as [string_of_int] costs.  Counting
   on the negative side covers [min_int], which has no positive
   counterpart. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* ---- parsing ---------------------------------------------------- *)

exception Bad of int * string

(* Deep enough for any sane request, shallow enough that a pathological
   line cannot blow the OCaml stack. *)
let max_depth = 64

type cursor = {
  text : string;
  mutable pos : int;
}

let error c msg = raise (Bad (c.pos, msg))

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    c.pos < String.length c.text
    && (match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some d when d = ch -> advance c
  | _ -> error c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

(* UTF-8 encode one code point into the buffer. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 c =
  if c.pos + 4 > String.length c.text then error c "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match c.text.[c.pos] with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> error c "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    advance c
  done;
  !v

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | None -> error c "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 c in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* high surrogate: require the low half *)
            if
              c.pos + 1 < String.length c.text
              && c.text.[c.pos] = '\\'
              && c.text.[c.pos + 1] = 'u'
            then begin
              c.pos <- c.pos + 2;
              let lo = hex4 c in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              else error c "bad low surrogate"
            end
            else error c "lone high surrogate"
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then error c "lone low surrogate"
          else add_utf8 buf cp
        | _ -> error c "unknown escape"));
      go ()
    | Some ch when Char.code ch < 0x20 -> error c "raw control character in string"
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.text && is_num_char c.text.[c.pos]
  do
    advance c
  done;
  let s = String.sub c.text start (c.pos - start) in
  let floating = String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') s in
  if floating then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> error { c with pos = start } (Printf.sprintf "bad number %S" s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      (* out of int range: fall back to float rather than reject *)
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error { c with pos = start } (Printf.sprintf "bad number %S" s))

let rec parse_value c depth =
  if depth > max_depth then error c "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ()
        | Some '}' -> advance c
        | _ -> error c "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value c (depth + 1) in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements ()
        | Some ']' -> advance c
        | _ -> error c "expected ',' or ']'"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' ->
    advance c;
    String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c (Printf.sprintf "unexpected character '%c'" ch)

let parse text =
  let c = { text; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos = String.length text then Ok v
    else Error (Printf.sprintf "trailing garbage at byte %d" c.pos)
  | exception Bad (pos, msg) -> Error (Printf.sprintf "%s at byte %d" msg pos)

(* ---- accessors -------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None
