(** Recursive-descent parser for mini-Mesa.

    {v
    program  ::= module*
    module   ::= MODULE ident ; (IMPORT ident (, ident)* ;)*
                 (global | procedure)* END ;
    global   ::= VAR ident : type (:= intlit)? ;
    procedure::= PROC ident ( params? ) (: type)? = stmt* END ;
    param    ::= VAR? ident : type
    stmt     ::= VAR ident : type (:= expr)? ;
               | ident := expr ;
               | IF expr THEN stmt* (ELSE stmt* )? END ;
               | WHILE expr DO stmt* END ;
               | RETURN expr? ;  | OUTPUT expr ;  | YIELD ;  | STOP ;
               | FORK callee ( args ) ;
               | TRANSFER ( expr (, expr)* ) ;
               | callee ( args ) ;
    expr     ::= OR-level with AND, NOT, comparisons (< <= = # >= >),
                 + -, * / MOD, unary -, and primaries:
                 intlit TRUE FALSE NIL RETCTX ident callee(args)
                 TRANSFER(...) @callee ( expr )
    v} *)

val parse : string -> (Ast.program, string) result
