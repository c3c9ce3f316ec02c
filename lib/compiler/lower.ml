open Fpc_lang.Ast

type ctx = { mutable next : int; mutable decls : stmt list }

let fresh ctx =
  let name = Printf.sprintf "$t%d" ctx.next in
  ctx.next <- ctx.next + 1;
  (* Temps carry Tint: lowered code is consumed by the code generator only,
     which treats every value as a word. *)
  ctx.decls <- Local (name, Tint, None) :: ctx.decls;
  name

(* [lower_expr] returns (prefix statements, expression) with any nested
   call hoisted; the expression itself may still BE a call (tail
   position).  [lower_inner] additionally hoists a top-level call, for use
   in operand positions. *)
let rec lower_expr ctx (e : expr) : stmt list * expr =
  match e with
  | Int _ | Bool _ | Nil | Var _ | Retctx | ProcVal _ -> ([], e)
  | Index (name, i) ->
    let p, i' = lower_inner ctx i in
    (p, Index (name, i'))
  | Unop (op, a) ->
    let p, a' = lower_inner ctx a in
    (p, Unop (op, a'))
  | Binop (op, a, b) ->
    let pa, a' = lower_inner ctx a in
    let pb, b' = lower_inner ctx b in
    (pa @ pb, Binop (op, a', b'))
  | Call (c, args) ->
    let p, args' = lower_args ctx args in
    (p, Call (c, args'))
  | Transfer (dest, values) ->
    let pd, dest' = lower_inner ctx dest in
    let pv, values' = lower_args ctx values in
    (pd @ pv, Transfer (dest', values'))

and lower_inner ctx e =
  match lower_expr ctx e with
  | p, ((Call _ | Transfer _) as call) ->
    let t = fresh ctx in
    (p @ [ Assign (t, call) ], Var t)
  | r -> r

and lower_args ctx args =
  let ps, args' = List.split (List.map (lower_inner ctx) args) in
  (List.concat ps, args')

let rec lower_stmt ctx (s : stmt) : stmt list =
  match s with
  | Local (x, t, Some e) ->
    let p, e' = lower_expr ctx e in
    p @ [ Local (x, t, Some e') ]
  | Local (_, _, None) -> [ s ]
  | Assign (x, e) ->
    let p, e' = lower_expr ctx e in
    p @ [ Assign (x, e') ]
  | AssignIdx (x, i, e) ->
    (* Both index and value must be call-free: SLX expects them stacked
       beneath each other. *)
    let pi, i' = lower_inner ctx i in
    let pe, e' = lower_inner ctx e in
    pi @ pe @ [ AssignIdx (x, i', e') ]
  | Return (Some e) ->
    let p, e' = lower_expr ctx e in
    p @ [ Return (Some e') ]
  | Return None -> [ s ]
  | Output e ->
    let p, e' = lower_expr ctx e in
    p @ [ Output e' ]
  | If (cond, then_, else_) ->
    let p, cond' = lower_inner ctx cond in
    p @ [ If (cond', lower_list ctx then_, lower_list ctx else_) ]
  | While (cond, body) ->
    (* The condition's hoisted prefix must rerun before each test, so it is
       replayed at the end of the body.  Temps are declared at procedure
       top, so the replay re-assigns rather than re-declares. *)
    let p, cond' = lower_inner ctx cond in
    p @ [ While (cond', lower_list ctx body @ p) ]
  | CallS (c, args) ->
    let p, args' = lower_args ctx args in
    p @ [ CallS (c, args') ]
  | TransferS (dest, values) ->
    let pd, dest' = lower_inner ctx dest in
    let pv, values' = lower_args ctx values in
    pd @ pv @ [ TransferS (dest', values') ]
  | ForkS (c, args) ->
    let p, args' = lower_args ctx args in
    p @ [ ForkS (c, args') ]
  | YieldS | StopS -> [ s ]

and lower_list ctx stmts = List.concat_map (lower_stmt ctx) stmts

let proc (p : proc) =
  let ctx = { next = 0; decls = [] } in
  let body = lower_list ctx p.pr_body in
  { p with pr_body = List.rev ctx.decls @ body }

let module_decl m = { m with md_procs = List.map proc m.md_procs }
let program prog = List.map module_decl prog
