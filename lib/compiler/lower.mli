(** Call hoisting: establish the stack-discipline invariant of §5.2.

    The Mesa encoding requires that at every call or TRANSFER the
    evaluation stack holds exactly the outgoing argument record — this is
    what lets §7.2 rename the stack bank into the callee's local bank, and
    it is why "code of the form f[g[], h[]] requires the results of g to
    be saved before h is called".  This pass performs that saving: every
    call or TRANSFER nested inside a larger expression is hoisted into a
    fresh compiler temporary ($t0, $t1, ...); temporaries are declared once
    at the top of the procedure so hoisted prefixes can be replayed inside
    loop bodies for re-evaluated conditions.

    After lowering, Call/Transfer nodes appear only as the entire
    right-hand side of an assignment, initialiser, RETURN or OUTPUT, or as
    a statement — positions where the stack is empty. *)

val proc : Fpc_lang.Ast.proc -> Fpc_lang.Ast.proc
(** Lower one procedure's body. *)

val module_decl : Fpc_lang.Ast.module_decl -> Fpc_lang.Ast.module_decl
val program : Fpc_lang.Ast.program -> Fpc_lang.Ast.program
