(* The closed-loop trace replay every workload runs.

   A stream is one caller: a client, the trace ops it replays in order
   and a window — the number of ops it keeps open (issued, or queued
   behind another op on the same key) before it waits for a reply.
   lan_* runs one stream over the whole trace in trace order, wrapping
   around until its deadline; wan_64 runs one stream per user over that
   user's ops, starting an access group only once the previous one has
   completed.

   Two ops on one key never overlap — a later op queues behind the
   earlier one and issues from its completion, whichever stream it
   belongs to — so every get has exactly one right answer: the last
   acked write.  The replay keeps each key's acked version and length
   and checks every read byte for byte (Common.matches). *)

open Common

module Make (T : D2_net.Transport.S) = struct
  module Client = D2_net.Client.Make (T)

  type stream = {
    client : Client.t;
    ops : int array;  (** op indices into the trace, in replay order *)
    window : int;
    cyclic : bool;  (** wrap around at the end until the deadline *)
    barrier : bool;  (** a new access group waits for the previous one *)
    mutable pos : int;  (** ops taken so far (beyond [ops] when cyclic) *)
    mutable open_ : int;  (** ops taken and not yet concluded *)
    mutable cur_group : int;
    mutable dirty : bool;  (** issued from another client's callback *)
    mutable finished_at : float;  (** when its last op concluded (not cyclic) *)
  }

  let stream client ~ops ~window ~cyclic ~barrier =
    {
      client;
      ops;
      window;
      cyclic;
      barrier;
      pos = 0;
      open_ = 0;
      cur_group = -1;
      dirty = false;
      finished_at = nan;
    }

  type pending = { s : stream; op : int; inst : int }

  type t = {
    prep : prep;
    now : unit -> float;  (** the transport's clock, seconds *)
    mutable stop_at : float;  (** no op is taken once [now] passes this *)
    mutable spans : Spans.t option;
    ver : int array;  (** per key: acked version; -1 absent; -2 unknown *)
    len : int array;
    active : bool array;
    blocked : pending Queue.t option array;
    groups : (int, float * int ref) Hashtbl.t;  (** instance -> start, ops left *)
    check : checker;
    get_ms : Fbuf.t;
    put_ms : Fbuf.t;
    group_ms : Fbuf.t;
    mutable next_ver : int;
    mutable next_id : int;
    mutable taken : int;
    mutable completed : int;
    mutable failed : int;
    mutable verify_errors : int;
    mutable current : stream option;  (** stream whose callback is running *)
  }

  (* All keys start absent; [preload] makes them present. *)
  let create ?spans ~now prep =
    let nk = Array.length prep.keys in
    {
      prep;
      now;
      stop_at = infinity;
      spans;
      ver = Array.make nk (-1);
      len = Array.make nk 0;
      active = Array.make nk false;
      blocked = Array.make nk None;
      groups = Hashtbl.create 1024;
      check = checker ();
      get_ms = Fbuf.create ();
      put_ms = Fbuf.create ();
      group_ms = Fbuf.create ();
      next_ver = 1;
      next_id = 0;
      taken = 0;
      completed = 0;
      failed = 0;
      verify_errors = 0;
      current = None;
    }

  let n_ops s = Array.length s.ops
  let exhausted r s = (s.pos >= n_ops s && not s.cyclic) || r.now () >= r.stop_at
  let idle s = s.open_ = 0

  let group_done r inst =
    match Hashtbl.find_opt r.groups inst with
    | None -> ()
    | Some (start, left) ->
        decr left;
        if !left = 0 then begin
          Hashtbl.remove r.groups inst;
          Fbuf.add r.group_ms ((r.now () -. start) *. 1000.0)
        end

  let rec conclude r p =
    p.s.open_ <- p.s.open_ - 1;
    r.completed <- r.completed + 1;
    group_done r p.inst;
    let k = r.prep.kid.(p.op) in
    (match r.blocked.(k) with
    | Some q ->
        let next = Queue.pop q in
        if Queue.is_empty q then r.blocked.(k) <- None;
        (match r.current with
        | Some s when s != next.s -> next.s.dirty <- true
        | _ -> ());
        start r next
    | None -> r.active.(k) <- false);
    pump r p.s;
    if idle p.s && exhausted r p.s then p.s.finished_at <- r.now ()

  (* Issue [p]; its key is free and is now held until [conclude]. *)
  and start r p =
    let o = r.prep.trace.Op.ops.(p.op) and k = r.prep.kid.(p.op) in
    r.active.(k) <- true;
    if o.Op.kind = Op.Delete && r.ver.(k) = -1 then conclude r p
    else begin
      let id = r.next_id in
      r.next_id <- id + 1;
      let t0 = r.now () in
      let ns0 = match r.spans with Some _ -> now_ns () | None -> 0 in
      let client = p.s.client in
      let finish buf =
        Fbuf.add buf ((r.now () -. t0) *. 1000.0);
        (match r.spans with
        | Some sp ->
            Spans.record sp Spans.Op ~id ~parent:(-1) ~t0:ns0 ~t1:(now_ns ())
        | None -> ());
        let saved = r.current in
        r.current <- Some p.s;
        conclude r p;
        r.current <- saved
      in
      let fail () =
        r.failed <- r.failed + 1;
        r.ver.(k) <- -2
      in
      let put () =
        let ver = r.next_ver and len = op_len o in
        r.next_ver <- ver + 1;
        let data = payload ~len ~key_str:r.prep.key_str.(k) ~ver in
        Client.put_async client ~key:r.prep.keys.(k) ~data (fun res ->
            (match res with
            | `Ok _ ->
                r.ver.(k) <- ver;
                r.len.(k) <- len
            | `Failed -> fail ());
            finish r.put_ms)
      in
      (match o.Op.kind with
      | Op.Write | Op.Create -> put ()
      | Op.Read when r.ver.(k) = -1 -> put ()
      | Op.Read ->
          Client.get_async client ~key:r.prep.keys.(k) (fun res ->
              let ver = r.ver.(k) in
              (match res with
              | `Found data ->
                  if
                    ver >= 0
                    && not
                         (matches r.check ~len:r.len.(k)
                            ~key_str:r.prep.key_str.(k) ~ver data)
                  then r.verify_errors <- r.verify_errors + 1
              | `Missing -> if ver >= 0 then r.verify_errors <- r.verify_errors + 1
              | `Failed -> fail ());
              finish r.get_ms)
      | Op.Delete ->
          Client.remove_async client ~key:r.prep.keys.(k) (fun res ->
              (match res with
              | `Ok removed ->
                  if (not removed) && r.ver.(k) >= 0 then
                    r.verify_errors <- r.verify_errors + 1;
                  r.ver.(k) <- -1
              | `Failed -> fail ());
              finish r.put_ms));
      match r.spans with
      | Some sp ->
          Spans.record sp Spans.Issue ~id:(-1) ~parent:id ~t0:ns0 ~t1:(now_ns ())
      | None -> ()
    end

  (* Take ops from [s] while its window has room. *)
  and pump r s =
    let continue = ref true in
    while !continue && s.open_ < s.window && not (exhausted r s) do
      let n = n_ops s in
      let op = s.ops.(s.pos mod n) in
      let g = r.prep.group.(op) in
      let inst = (s.pos / n * Array.length r.prep.group_size) + g in
      if s.barrier && inst <> s.cur_group && s.open_ > 0 then continue := false
      else begin
        s.pos <- s.pos + 1;
        s.open_ <- s.open_ + 1;
        r.taken <- r.taken + 1;
        s.cur_group <- inst;
        (* In trace order the ops of one group interleave with other
           users' ops: the group opens at its first op only. *)
        if not (Hashtbl.mem r.groups inst) then
          Hashtbl.replace r.groups inst (r.now (), ref r.prep.group_size.(g));
        let p = { s; op; inst } in
        let k = r.prep.kid.(op) in
        if r.active.(k) then begin
          let q =
            match r.blocked.(k) with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                r.blocked.(k) <- Some q;
                q
          in
          Queue.push p q
        end
        else start r p
      end
    done

  (* Store every key the trace touches (version 0, at the length of its
     first op) with a window of [window]; [poll] drives the transport.
     Returns the number of failed puts. *)
  let preload r client ~window ~poll =
    let nk = Array.length r.prep.keys in
    let open_ = ref 0 and failed = ref 0 in
    for k = 0 to nk - 1 do
      while !open_ >= window do
        poll ()
      done;
      incr open_;
      let len = r.prep.first_len.(k) in
      let data = payload ~len ~key_str:r.prep.key_str.(k) ~ver:0 in
      Client.put_async client ~key:r.prep.keys.(k) ~data (fun res ->
          decr open_;
          match res with
          | `Ok _ ->
              r.ver.(k) <- 0;
              r.len.(k) <- len
          | `Failed -> incr failed)
    done;
    while !open_ > 0 do
      poll ()
    done;
    !failed

  (* Live-user bytes: the payload bytes of every key currently stored. *)
  let live_bytes r =
    let b = ref 0 in
    Array.iteri (fun k v -> if v >= 0 then b := !b + r.len.(k)) r.ver;
    !b
end
