(* In-memory span recorder for the traced run.  The benchmark wraps its
   own calls into each layer (op issue, Client.poll, Keymap.key_of_op,
   Store calls, engine steps) — nothing inside the program is
   instrumented.  Spans are kept in flat arrays and written out when
   the run ends. *)

type kind =
  | Op  (** one client op, issue to continuation; id = op id *)
  | Issue  (** time inside [Client.*_async]; parent = op id *)
  | Poll  (** [Client.poll] on the live transport *)
  | Step  (** one engine step of the in-process world *)
  | Key_of_op  (** [Keymap.key_of_op] *)
  | Store_put
  | Store_get
  | Store_flush

let kinds = [ Op; Issue; Poll; Step; Key_of_op; Store_put; Store_get; Store_flush ]

let name = function
  | Op -> "op"
  | Issue -> "client.issue"
  | Poll -> "client.poll"
  | Step -> "memnet.step"
  | Key_of_op -> "trace.key_of_op"
  | Store_put -> "store.put"
  | Store_get -> "store.get"
  | Store_flush -> "store.flush"

let index = function
  | Op -> 0
  | Issue -> 1
  | Poll -> 2
  | Step -> 3
  | Key_of_op -> 4
  | Store_put -> 5
  | Store_get -> 6
  | Store_flush -> 7

type t = {
  mutable n : int;
  mutable kind : int array;
  mutable id : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
}

let create () =
  let z () = Array.make 65536 0 in
  { n = 0; kind = z (); id = z (); parent = z (); t0 = z (); t1 = z () }

let grow a n =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

let record t k ~id ~parent ~t0 ~t1 =
  if t.n = Array.length t.kind then begin
    t.kind <- grow t.kind t.n;
    t.id <- grow t.id t.n;
    t.parent <- grow t.parent t.n;
    t.t0 <- grow t.t0 t.n;
    t.t1 <- grow t.t1 t.n
  end;
  let i = t.n in
  t.kind.(i) <- index k;
  t.id.(i) <- id;
  t.parent.(i) <- parent;
  t.t0.(i) <- t0;
  t.t1.(i) <- t1;
  t.n <- i + 1

(* Per-kind totals.  A span's self time is its duration minus the part
   covered by the synchronous calls nested in it (an op issued from a
   continuation runs inside a poll).  Op spans are asynchronous — they
   overlap everything — so they take no part in the nesting. *)
type summary = {
  count : int;
  total_ns : int;
  self_ns : int;
  durations : float array;  (** ns, unsorted *)
}

let summarize t =
  let nk = List.length kinds in
  let calls =
    Array.init t.n Fun.id |> Array.to_list
    |> List.filter (fun i -> t.kind.(i) <> index Op)
    |> Array.of_list
  in
  Array.sort
    (fun a b ->
      match compare t.t0.(a) t.t0.(b) with 0 -> compare t.t1.(b) t.t1.(a) | c -> c)
    calls;
  let covered = Array.make t.n 0 in
  let stack = ref [] in
  Array.iter
    (fun i ->
      let rec pop = function
        | top :: rest when t.t1.(top) <= t.t0.(i) -> pop rest
        | s -> s
      in
      stack := pop !stack;
      (match !stack with
      | top :: _ -> covered.(top) <- covered.(top) + (t.t1.(i) - t.t0.(i))
      | [] -> ());
      stack := i :: !stack)
    calls;
  let count = Array.make nk 0 and total = Array.make nk 0 and self = Array.make nk 0 in
  let durs = Array.init nk (fun _ -> Fbuf.create ()) in
  for i = 0 to t.n - 1 do
    let k = t.kind.(i) and d = t.t1.(i) - t.t0.(i) in
    count.(k) <- count.(k) + 1;
    total.(k) <- total.(k) + d;
    self.(k) <- self.(k) + d - covered.(i);
    Fbuf.add durs.(k) (float_of_int d)
  done;
  fun k ->
    let i = index k in
    {
      count = count.(i);
      total_ns = total.(i);
      self_ns = self.(i);
      durations = Fbuf.contents durs.(i);
    }

let write t path =
  let oc = open_out path in
  output_string oc "span\tid\tparent\tstart_ns\tend_ns\n";
  let names = Array.of_list (List.map name kinds) in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" names.(t.kind.(i)) t.id.(i)
      t.parent.(i) t.t0.(i) t.t1.(i)
  done;
  close_out oc
