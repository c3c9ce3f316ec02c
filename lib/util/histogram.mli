(** Integer-valued histograms with moment and percentile queries.

    Used for frame-size distributions (§7.1 of the paper), call-depth
    profiles, and dynamic instruction mixes. *)

type t

val create : unit -> t
(** An empty histogram. *)

val add : t -> int -> unit
(** Record one observation.  Allocation-free for values in [0, 255], the
    range of the call depths and run lengths a trace listener counts per
    transfer event. *)

val add_many : t -> int -> count:int -> unit
(** Record [count] observations of the same value. *)

val count : t -> int
(** Total number of observations. *)

val total : t -> int
(** Sum of all observed values. *)

val mean : t -> float
(** Mean of observations; 0 when empty. *)

val min_value : t -> int
(** Smallest observation.  Raises [Invalid_argument] when empty. *)

val max_value : t -> int
(** Largest observation.  Raises [Invalid_argument] when empty. *)

val percentile : t -> float -> int
(** [percentile t p] with [p] in [\[0, 100\]]: the smallest observed value
    [v] such that at least [p]% of observations are [<= v].  Raises
    [Invalid_argument] when empty. *)

val fraction_le : t -> int -> float
(** Fraction of observations [<= v]; 0 when empty. *)

val to_sorted_list : t -> (int * int) list
(** All (value, count) pairs, ascending by value. *)
