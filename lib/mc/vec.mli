(** Growable arrays (amortized O(1) push), the checker's workhorse store:
    configurations, transition words and parent pointers all live in flat
    vectors indexed by configuration id. *)

type 'a t

val create : unit -> 'a t
val copy : 'a t -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Remove and return the last element; raises [Invalid_argument] when
    empty. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
