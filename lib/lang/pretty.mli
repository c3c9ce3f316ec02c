(** Pretty-printer producing valid mini-Mesa source: [parse (print ast)]
    yields [ast] again (the round-trip property tested by the suite). *)

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
