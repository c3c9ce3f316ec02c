open Ast

exception Parse_error of string

type cursor = { toks : Lexer.positioned array; mutable pos : int }

let peek cur = cur.toks.(cur.pos).Lexer.tok

let fail cur msg =
  let p = cur.toks.(cur.pos) in
  raise
    (Parse_error
       (Printf.sprintf "%d:%d: %s (found %s)" p.Lexer.line p.Lexer.col msg
          (Lexer.token_to_string p.Lexer.tok)))

let advance cur = cur.pos <- cur.pos + 1

let eat_kw cur kw =
  match peek cur with
  | Lexer.KW k when String.equal k kw -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %s" kw)

let eat_punct cur p =
  match peek cur with
  | Lexer.PUNCT q when String.equal q p -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %S" p)

let try_punct cur p =
  match peek cur with
  | Lexer.PUNCT q when String.equal q p ->
    advance cur;
    true
  | _ -> false

let try_kw cur kw =
  match peek cur with
  | Lexer.KW k when String.equal k kw ->
    advance cur;
    true
  | _ -> false

let ident cur =
  match peek cur with
  | Lexer.IDENT s ->
    advance cur;
    s
  | _ -> fail cur "expected identifier"

let typ cur =
  match peek cur with
  | Lexer.KW "INT" ->
    advance cur;
    Tint
  | Lexer.KW "BOOL" ->
    advance cur;
    Tbool
  | Lexer.KW "CONTEXT" ->
    advance cur;
    Tcontext
  | Lexer.KW "ARRAY" -> (
    advance cur;
    match peek cur with
    | Lexer.INT_LIT n when n > 0 ->
      advance cur;
      eat_kw cur "OF";
      eat_kw cur "INT";
      Tarray n
    | _ -> fail cur "expected a positive array size")
  | _ -> fail cur "expected a type (INT, BOOL, CONTEXT or ARRAY)"

let callee_after_ident cur name =
  if try_punct cur "." then { c_module = Some name; c_proc = ident cur }
  else { c_module = None; c_proc = name }

(* ---------------- expressions ---------------- *)

let rec expr cur = or_level cur

and or_level cur =
  let lhs = ref (and_level cur) in
  while try_kw cur "OR" do
    lhs := Binop (Bor, !lhs, and_level cur)
  done;
  !lhs

and and_level cur =
  let lhs = ref (not_level cur) in
  while try_kw cur "AND" do
    lhs := Binop (Band, !lhs, not_level cur)
  done;
  !lhs

and not_level cur =
  if try_kw cur "NOT" then Unop (Unot, not_level cur) else comparison cur

and comparison cur =
  let lhs = additive cur in
  let op =
    match peek cur with
    | Lexer.PUNCT "<" -> Some Blt
    | Lexer.PUNCT "<=" -> Some Ble
    | Lexer.PUNCT "=" -> Some Beq
    | Lexer.PUNCT "#" -> Some Bne
    | Lexer.PUNCT ">=" -> Some Bge
    | Lexer.PUNCT ">" -> Some Bgt
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance cur;
    Binop (op, lhs, additive cur)

and additive cur =
  let lhs = ref (multiplicative cur) in
  let rec loop () =
    if try_punct cur "+" then begin
      lhs := Binop (Badd, !lhs, multiplicative cur);
      loop ()
    end
    else if try_punct cur "-" then begin
      lhs := Binop (Bsub, !lhs, multiplicative cur);
      loop ()
    end
  in
  loop ();
  !lhs

and multiplicative cur =
  let lhs = ref (unary cur) in
  let rec loop () =
    if try_punct cur "*" then begin
      lhs := Binop (Bmul, !lhs, unary cur);
      loop ()
    end
    else if try_punct cur "/" then begin
      lhs := Binop (Bdiv, !lhs, unary cur);
      loop ()
    end
    else if try_kw cur "MOD" then begin
      lhs := Binop (Bmod, !lhs, unary cur);
      loop ()
    end
  in
  loop ();
  !lhs

and unary cur = if try_punct cur "-" then Unop (Uneg, unary cur) else primary cur

and arg_list cur =
  eat_punct cur "(";
  if try_punct cur ")" then []
  else begin
    let rec more acc =
      let e = expr cur in
      if try_punct cur "," then more (e :: acc)
      else begin
        eat_punct cur ")";
        List.rev (e :: acc)
      end
    in
    more []
  end

and primary cur =
  match peek cur with
  | Lexer.INT_LIT v ->
    advance cur;
    Int v
  | Lexer.KW "TRUE" ->
    advance cur;
    Bool true
  | Lexer.KW "FALSE" ->
    advance cur;
    Bool false
  | Lexer.KW "NIL" ->
    advance cur;
    Nil
  | Lexer.KW "RETCTX" ->
    advance cur;
    Retctx
  | Lexer.KW "TRANSFER" -> (
    advance cur;
    match arg_list cur with
    | ctx :: values -> Transfer (ctx, values)
    | [] -> fail cur "TRANSFER needs a destination context")
  | Lexer.PUNCT "@" ->
    advance cur;
    let name = ident cur in
    ProcVal (callee_after_ident cur name)
  | Lexer.PUNCT "(" ->
    advance cur;
    let e = expr cur in
    eat_punct cur ")";
    e
  | Lexer.IDENT name -> (
    advance cur;
    let c = callee_after_ident cur name in
    match (peek cur, c.c_module) with
    | Lexer.PUNCT "(", _ -> Call (c, arg_list cur)
    | Lexer.PUNCT "[", None ->
      advance cur;
      let i = expr cur in
      eat_punct cur "]";
      Index (name, i)
    | _, Some _ -> fail cur "qualified name must be a call"
    | _, None -> Var name)
  | _ -> fail cur "expected an expression"

(* ---------------- statements ---------------- *)

let rec stmt_list cur ~stop =
  let stop_here () =
    match peek cur with
    | Lexer.KW k -> List.mem k stop
    | _ -> false
  in
  let rec loop acc = if stop_here () then List.rev acc else loop (stmt cur :: acc) in
  loop []

and stmt cur =
  match peek cur with
  | Lexer.KW "VAR" ->
    advance cur;
    let name = ident cur in
    eat_punct cur ":";
    let t = typ cur in
    let init = if try_punct cur ":=" then Some (expr cur) else None in
    eat_punct cur ";";
    Local (name, t, init)
  | Lexer.KW "IF" ->
    advance cur;
    let cond = expr cur in
    eat_kw cur "THEN";
    let then_ = stmt_list cur ~stop:[ "ELSE"; "END" ] in
    let else_ = if try_kw cur "ELSE" then stmt_list cur ~stop:[ "END" ] else [] in
    eat_kw cur "END";
    eat_punct cur ";";
    If (cond, then_, else_)
  | Lexer.KW "WHILE" ->
    advance cur;
    let cond = expr cur in
    eat_kw cur "DO";
    let body = stmt_list cur ~stop:[ "END" ] in
    eat_kw cur "END";
    eat_punct cur ";";
    While (cond, body)
  | Lexer.KW "RETURN" ->
    advance cur;
    let e = if try_punct cur ";" then None else Some (expr cur) in
    if e <> None then eat_punct cur ";";
    Return e
  | Lexer.KW "OUTPUT" ->
    advance cur;
    let e = expr cur in
    eat_punct cur ";";
    Output e
  | Lexer.KW "YIELD" ->
    advance cur;
    eat_punct cur ";";
    YieldS
  | Lexer.KW "STOP" ->
    advance cur;
    eat_punct cur ";";
    StopS
  | Lexer.KW "FORK" ->
    advance cur;
    let name = ident cur in
    let c = callee_after_ident cur name in
    let args = arg_list cur in
    eat_punct cur ";";
    ForkS (c, args)
  | Lexer.KW "TRANSFER" -> (
    advance cur;
    match arg_list cur with
    | ctx :: values ->
      eat_punct cur ";";
      TransferS (ctx, values)
    | [] -> fail cur "TRANSFER needs a destination context")
  | Lexer.IDENT name -> (
    advance cur;
    let c = callee_after_ident cur name in
    match peek cur with
    | Lexer.PUNCT "(" ->
      let args = arg_list cur in
      eat_punct cur ";";
      CallS (c, args)
    | Lexer.PUNCT ":=" when c.c_module = None ->
      advance cur;
      let e = expr cur in
      eat_punct cur ";";
      Assign (name, e)
    | Lexer.PUNCT "[" when c.c_module = None ->
      advance cur;
      let i = expr cur in
      eat_punct cur "]";
      eat_punct cur ":=";
      let e = expr cur in
      eat_punct cur ";";
      AssignIdx (name, i, e)
    | _ -> fail cur "expected \":=\", \"[\" or a call"
  )
  | _ -> fail cur "expected a statement"

(* ---------------- declarations ---------------- *)

let param cur =
  let var = try_kw cur "VAR" in
  let name = ident cur in
  eat_punct cur ":";
  let t = typ cur in
  { prm_name = name; prm_type = t; prm_var = var }

let proc_decl cur =
  eat_kw cur "PROC";
  let name = ident cur in
  eat_punct cur "(";
  let params =
    if try_punct cur ")" then []
    else begin
      let rec more acc =
        let p = param cur in
        if try_punct cur "," then more (p :: acc)
        else begin
          eat_punct cur ")";
          List.rev (p :: acc)
        end
      in
      more []
    end
  in
  let result = if try_punct cur ":" then Some (typ cur) else None in
  eat_punct cur "=";
  let body = stmt_list cur ~stop:[ "END" ] in
  eat_kw cur "END";
  eat_punct cur ";";
  { pr_name = name; pr_params = params; pr_result = result; pr_body = body }

let module_decl cur =
  eat_kw cur "MODULE";
  let name = ident cur in
  eat_punct cur ";";
  let imports = ref [] in
  while try_kw cur "IMPORT" do
    let rec more () =
      imports := ident cur :: !imports;
      if try_punct cur "," then more () else eat_punct cur ";"
    in
    more ()
  done;
  let globals = ref [] and procs = ref [] in
  let rec decls () =
    match peek cur with
    | Lexer.KW "VAR" ->
      advance cur;
      let gname = ident cur in
      eat_punct cur ":";
      let t = typ cur in
      let init =
        if try_punct cur ":=" then begin
          match peek cur with
          | Lexer.INT_LIT v ->
            advance cur;
            Some v
          | Lexer.KW "TRUE" ->
            advance cur;
            Some 1
          | Lexer.KW "FALSE" ->
            advance cur;
            Some 0
          | _ -> fail cur "global initialiser must be a literal"
        end
        else None
      in
      eat_punct cur ";";
      globals := { g_name = gname; g_type = t; g_init = init } :: !globals;
      decls ()
    | Lexer.KW "PROC" ->
      procs := proc_decl cur :: !procs;
      decls ()
    | _ -> ()
  in
  decls ();
  eat_kw cur "END";
  eat_punct cur ";";
  {
    md_name = name;
    md_imports = List.rev !imports;
    md_globals = List.rev !globals;
    md_procs = List.rev !procs;
  }

let parse src =
  match Lexer.tokenize src with
  | exception Lexer.Lex_error msg -> Error msg
  | toks -> (
    let cur = { toks = Array.of_list toks; pos = 0 } in
    try
      let rec modules acc =
        match peek cur with
        | Lexer.EOF -> List.rev acc
        | _ -> modules (module_decl cur :: acc)
      in
      Ok (modules [])
    with Parse_error msg -> Error msg)
