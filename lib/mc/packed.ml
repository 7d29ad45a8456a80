(* The packed-configuration engine front end: builds the exact
   guard/footprint tables of a system and repackages them as the
   engine-agnostic [Model.packed] closure hooks that [lib/runtime] and
   [lib/mp] consume (those libraries cannot depend on the checker, so the
   functor boundary is erased here). *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model

(* The runtime duplicates the packed-entry field decoders (it cannot see
   [Tables]); pin the two encodings against drift. *)
let () =
  let sample = 0b1010110_0101010101010101_1_101010 in
  assert (Model.entry_act sample = Tables.entry_act sample);
  assert (Model.entry_succ sample = Tables.entry_succ sample)

module Make (Sys : System.S) = struct
  module Tb = Tables.Make (Sys)
  module Enc = Encode.Make (Sys)

  type t = { h : H.t; tb : Tb.t }

  let build ?verify ?cap ?store_cap h =
    { h; tb = Tb.build ?verify ?cap ?store_cap h }

  let tables t = t.tb
  let built t = Tb.built t.tb

  let coverage t =
    let n = H.n t.h in
    let b = ref 0 in
    for p = 0 to n - 1 do
      match Tb.status t.tb p with `Built -> incr b | _ -> ()
    done;
    float_of_int !b /. float_of_int (max 1 n)

  let hooks t : Sys.state Model.packed =
    let enc = Tb.enc t.tb in
    { Model.pk_entry = (fun ~mode ~proc cfg -> Tb.entry t.tb ~mode ~proc cfg);
      pk_intern = (fun p s -> Enc.intern enc p s);
      pk_support = (fun p -> Tb.support t.tb p);
      pk_built =
        (fun p -> match Tb.status t.tb p with `Built -> true | _ -> false) }

  (* A domain's copy of the encoder, with the snapshot it was taken from.
     One key for the functor, so a long-lived domain keeps at most the
     copy of the latest [domain_hooks]. *)
  let local_copy = Domain.DLS.new_key (fun () -> None)

  (* The tables are read-only, but [pk_intern] adds escapees to the
     encoder's hash tables; so every domain but the caller interns into
     its own copy of the encoder as it stood here. *)
  let domain_hooks t =
    let enc = Tb.enc t.tb and owner = Domain.self () in
    let snapshot = Enc.copy enc in
    let local () =
      if Domain.self () = owner then enc
      else
        match Domain.DLS.get local_copy with
        | Some (s, copy) when s == snapshot -> copy
        | _ ->
          let copy = Enc.copy snapshot in
          Domain.DLS.set local_copy (Some (snapshot, copy));
          copy
    in
    { (hooks t) with Model.pk_intern = (fun p s -> Enc.intern (local ()) p s) }
end
