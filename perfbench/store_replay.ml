(* The segment store's share of lan_disk_q2, timed in this process.
   The daemons' stores live in other processes, so the traced run
   drives a standalone D2_segstore.Store with the op stream one
   lan_disk_q2 replica sees — every block the trace touches, then every
   trace op on its key with the same sizes — under fsync=batch, in the
   same kind of directory.  A group commit ([flush]) follows every
   [window] ops, as the daemon's commits follow its pipelined batches. *)

open Common
module Store = D2_segstore.Store
module Bc = D2_cache.Block_cache

type outcome = {
  ops : int;
  put_us : Fbuf.t;
  get_us : Fbuf.t;
  flush_us : Fbuf.t;
  puts : int;
  fsyncs : int;
  cache_hits : int;
  cache_misses : int;
  file_bytes : int;
  live_bytes : int;
  verify_errors : int;
}

let run ~spans ~prep ~dir ~window ~seconds =
  let store =
    Store.create ~dir ~config:{ Store.default_config with fsync = Store.Batch } ()
  in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      let timed kind (buf : Fbuf.t option) f =
        let t0 = now_ns () in
        let x = f () in
        let t1 = now_ns () in
        Spans.record spans kind ~id:(-1) ~parent:(-1) ~t0 ~t1;
        Option.iter (fun b -> Fbuf.add b (float_of_int (t1 - t0) /. 1000.0)) buf;
        x
      in
      let nk = Array.length prep.keys in
      let ver = Array.make nk (-1) and len = Array.make nk 0 in
      let put_raw ?buf k l v =
        let data = payload ~len:l ~key_str:prep.key_str.(k) ~ver:v in
        ignore (timed Spans.Store_put buf (fun () -> Store.put store ~key:prep.keys.(k) ~data));
        ver.(k) <- v;
        len.(k) <- l
      in
      for k = 0 to nk - 1 do
        put_raw k prep.first_len.(k) 0;
        if k mod window = window - 1 then Store.flush store
      done;
      Store.flush store;
      let put_us = Fbuf.create () and get_us = Fbuf.create () and flush_us = Fbuf.create () in
      let check = checker () in
      let f0 = Store.fsyncs store and c = Store.cache store in
      let h0 = Bc.cache_hits c and m0 = Bc.cache_misses c in
      let ops = prep.trace.Op.ops in
      let n = Array.length ops in
      let deadline = wall () +. seconds in
      let i = ref 0 and puts = ref 0 and errors = ref 0 and next_ver = ref 1 in
      while wall () < deadline do
        for _ = 1 to window do
          let o = ops.(!i mod n) and k = prep.kid.(!i mod n) in
          incr i;
          let put () =
            let v = !next_ver in
            incr next_ver;
            incr puts;
            put_raw ~buf:put_us k (op_len o) v
          in
          match o.Op.kind with
          | Op.Write | Op.Create -> put ()
          | Op.Read when ver.(k) < 0 -> put ()
          | Op.Read -> (
              let got =
                timed Spans.Store_get (Some get_us) (fun () -> Store.get store ~key:prep.keys.(k))
              in
              match got with
              | Some d when matches check ~len:len.(k) ~key_str:prep.key_str.(k) ~ver:ver.(k) d -> ()
              | _ -> incr errors)
          | Op.Delete ->
              if ver.(k) >= 0 then begin
                ignore (Store.remove store ~key:prep.keys.(k));
                ver.(k) <- -1
              end
        done;
        if Store.needs_flush store then
          timed Spans.Store_flush (Some flush_us) (fun () -> Store.flush store)
      done;
      {
        ops = !i;
        put_us;
        get_us;
        flush_us;
        puts = !puts;
        fsyncs = Store.fsyncs store - f0;
        cache_hits = Bc.cache_hits c - h0;
        cache_misses = Bc.cache_misses c - m0;
        file_bytes = Store.file_bytes store;
        live_bytes = Store.stored_bytes store;
        verify_errors = !errors;
      })
