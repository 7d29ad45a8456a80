module H = Snapcc_hypergraph.Hypergraph
module Obs = Snapcc_runtime.Obs

type t = {
  h : H.t;
  mutable was : bool array;
  mutable is : bool array;
  mutable last : Obs.t array;  (* the [after] that [is] was computed from *)
}

let create h ~initial =
  let is = Array.make (H.m h) false in
  Obs.fill_meets h initial is;
  { h; was = Array.make (H.m h) false; is; last = initial }

let advance t ~before ~after =
  let was = t.is and is = t.was in
  if before != t.last then Obs.fill_meets t.h before was;
  Obs.fill_meets t.h after is;
  t.was <- was;
  t.is <- is;
  t.last <- after

let before t = t.was
let after t = t.is
