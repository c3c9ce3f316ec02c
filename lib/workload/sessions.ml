(* A session-workload generator: the whole workload is one self-driving
   mini-Mesa program, so admission, think-time and completion are decided
   by machine instructions — identical under every engine and both tiers —
   rather than by host-side scheduling code whose interleaving could
   differ.  See sessions.mli for the lifecycle. *)

type config = {
  total : int;
  window : int;
  seed : int;
  think_lo : int;
  think_hi : int;
  depth_lo : int;
  depth_hi : int;
}

let default ~total =
  {
    total;
    window = 32;
    seed = 42;
    think_lo = 1;
    think_hi = 4;
    depth_lo = 1;
    depth_hi = 4;
  }

let validate c =
  if c.total < 1 then invalid_arg "Sessions: total < 1";
  if c.window < 1 then invalid_arg "Sessions: window < 1";
  if c.total > 30000 then invalid_arg "Sessions: total exceeds 16-bit counters";
  if c.think_lo < 1 || c.think_hi < c.think_lo then
    invalid_arg "Sessions: bad think range";
  if c.depth_lo < 0 || c.depth_hi < c.depth_lo then
    invalid_arg "Sessions: bad depth range"

(* All arithmetic in the generated program stays inside [0, 8191) so the
   16-bit signed machine words never wrap and MOD never sees a negative
   operand; the check word is updated commutatively (modular add) so its
   final value is independent of session interleaving.  A session commits
   its check contribution BEFORE bumping [finished]: main's exit condition
   is [finished = total], and a switch between the two statements is legal
   under any yield placement, so the reverse order would let main read the
   checksum with one session's contribution still pending. *)
let program c =
  validate c;
  let think_span = c.think_hi - c.think_lo + 1 in
  let depth_span = c.depth_hi - c.depth_lo + 1 in
  Printf.sprintf
    {|MODULE Main;
VAR started: INT := 0;
VAR finished: INT := 0;
VAR check: INT := 0;

PROC work(d: INT, x: INT): INT =
  IF d < 1 THEN
    RETURN (x + 1) MOD 8191;
  END;
  RETURN (work(d - 1, x + d) + d) MOD 8191;
END;

PROC peer(n: INT, x: INT): INT =
  VAR who: CONTEXT := RETCTX;
  VAR acc: INT := x MOD 8191;
  WHILE n > 1 DO
    acc := TRANSFER(who, (acc + 3) MOD 8191);
    who := RETCTX;
    n := n - 1;
  END;
  RETURN acc;
END;

PROC session(id: INT) =
  VAR r: INT := ((id MOD 251) * 13 + %d) MOD 997;
  VAR thinks: INT := %d + (r MOD %d);
  VAR d: INT := %d + ((r / 7) MOD %d);
  VAR x: INT := TRANSFER(@peer, thinks + 1, id MOD 8191);
  VAR co: CONTEXT := RETCTX;
  VAR i: INT := 0;
  VAR acc: INT := 0;
  WHILE i < thinks DO
    acc := (acc + work(d, x)) MOD 8191;
    x := TRANSFER(co, (x + i) MOD 8191);
    co := RETCTX;
    i := i + 1;
  END;
  check := (check + acc + x) MOD 8191;
  finished := finished + 1;
END;

PROC main() =
  WHILE started < %d DO
    IF started - finished < %d THEN
      FORK session(started);
      started := started + 1;
    ELSE
      YIELD;
    END;
  END;
  WHILE finished < %d DO
    YIELD;
  END;
  OUTPUT finished;
  OUTPUT check;
END;
END;
|}
    (c.seed mod 997) c.think_lo think_span c.depth_lo depth_span c.total
    c.window c.total

(* A dedicated per-session LIFO stack would have to reserve the worst
   case: the session frame, its peer frame (live for the whole
   conversation), and a full [work] chain at the deepest drawn depth.  The
   block sizes come from the compiled image's own frame-size indices —
   frame layout is convention-dependent (banked engines pad differently),
   so hand-counted payloads would understate some engines. *)
let worst_extent_words c ~image =
  validate c;
  let ladder = image.Fpc_mesa.Image.ladder in
  let block proc =
    let info = Fpc_mesa.Image.find_proc image ~instance:"Main" ~proc in
    Fpc_frames.Size_class.block_words ladder info.Fpc_mesa.Image.pi_fsi
  in
  block "session" + block "peer" + ((c.depth_hi + 1) * block "work")
