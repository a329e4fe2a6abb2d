(* Growable float sample buffer. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let append t u =
  for i = 0 to u.n - 1 do
    add t u.a.(i)
  done

let contents t = Array.sub t.a 0 t.n

(* Percentile with linear interpolation; 0 for an empty buffer. *)
let pct t p = if t.n = 0 then 0.0 else D2_util.Stats.percentile (contents t) p
