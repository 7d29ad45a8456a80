type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let copy v = { data = Array.copy v.data; len = v.len }
let length v = v.len

let push v x =
  if v.len = Array.length v.data then begin
    let ndata = Array.make (max 8 (2 * v.len)) x in
    Array.blit v.data 0 ndata 0 v.len;
    v.data <- ndata
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i = check v i; v.data.(i)
let set v i x = check v i; v.data.(i) <- x

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done
