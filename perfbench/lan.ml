(* lan_mem and lan_disk_q2: three d2d daemons on loopback TCP, one
   client in this process replaying the trace in trace order with a
   fixed window.  Every round boots a fresh cluster on its own ports and
   store directory, preloads every block the trace touches, measures,
   then stops the daemons with SIGTERM and removes the directory. *)

open Common
module Tu = D2_net.Transport_unix
module R = Replay.Make (D2_net.Transport_unix)

type config = {
  disk : bool;
  quorum : int;  (** read and write quorum *)
  window : int;
  users : int;
  target_mb : int;
}

let n_nodes = 3
let replicas = 3
let rpc_timeout = 1.0

(* {1 Daemons} *)

type daemon = { pid : int; log : string }

let port_free p =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      try
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
        true
      with Unix.Unix_error _ -> false)

(* A port range of this process and round, skipping busy ports. *)
let port_base ~seed ~round =
  let rec go attempt =
    if attempt > 200 then failwith "no free loopback port range";
    let base =
      let h = (seed * 7919) + (Unix.getpid () * 31) + (round * 101) + (attempt * 37) in
      20000 + (h land 0xffffff mod 40000)
    in
    if List.for_all port_free (List.init n_nodes (fun i -> base + i)) then base
    else go (attempt + 1)
  in
  go 0

let daemon_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.length kv >= 3 && String.sub kv 0 3 = "D2_"))
  |> Array.of_list

let spawn ~d2d ~cfg ~dir ~port_base i =
  let log = Filename.concat dir (Printf.sprintf "d2d-%d.log" i) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [
      d2d; "--node"; string_of_int i; "--nodes"; string_of_int n_nodes;
      "--port-base"; string_of_int port_base; "--replicas"; string_of_int replicas;
      "--domains"; "1"; "--store"; (if cfg.disk then "disk" else "mem");
      "--store-dir"; Filename.concat dir "store"; "--fsync"; "batch";
    ]
  in
  let pid = Unix.create_process_env d2d (Array.of_list args) (daemon_env ()) null fd fd in
  Unix.close fd;
  Unix.close null;
  { pid; log }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let wait_listening ds =
  let deadline = wall () +. 20.0 in
  let rec go () =
    if List.for_all (fun d -> contains (read_file d.log) "listening on") ds then ()
    else if wall () > deadline then failwith "d2d did not start"
    else if
      List.exists (fun d -> fst (Unix.waitpid [ Unix.WNOHANG ] d.pid) <> 0) ds
    then failwith "d2d exited during start-up"
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* utime + stime of a live process, seconds (USER_HZ = 100). *)
let proc_cpu pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let from = String.rindex s ')' + 2 in
  let rest = String.sub s from (String.length s - from) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

type final = { exit_ok : bool; served : int; blocks : int; bytes : int }

(* SIGTERM every daemon and reap it; one still running after 10 s is
   killed and counts as a failed exit. *)
let stop ds =
  List.iter (fun d -> try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()) ds;
  let deadline = wall () +. 10.0 in
  let rec reap pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when wall () < deadline ->
        Unix.sleepf 0.01;
        reap pid
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Unix.WSIGNALED Sys.sigkill
    | _, st -> st
  in
  List.map
    (fun d ->
      let st = reap d.pid in
      let log = read_file d.log in
      let line =
        List.find_opt (fun l -> contains l " served ") (String.split_on_char '\n' log)
      in
      let served, blocks, bytes =
        match line with
        | Some l -> (
            try
              Scanf.sscanf l "d2d: node %_d served %d requests, %d blocks (%d bytes) stored"
                (fun a b c -> (a, b, c))
            with _ -> (0, 0, 0))
        | None -> (0, 0, 0)
      in
      { exit_ok = st = Unix.WEXITED 0 && line <> None; served; blocks; bytes })
    ds

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun a f -> a + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* {1 One round} *)

type half = { ops : int; secs : float; traced : bool }

type round = {
  setup_s : float;
  trace_s : float;  (** of which trace generation *)
  preload_s : float;  (** of which the preload *)
  steal : float;  (** share of CPU time stolen from this guest while measuring *)
  halves : half list;  (** the measured intervals, in order *)
  measured_s : float;
  completed : int;
  taken : int;
  failed : int;
  verify_errors : int;
  get_ms : Fbuf.t;
  put_ms : Fbuf.t;
  group_ms : Fbuf.t;
  hits : int;
  misses : int;
  lookup_rpcs : int;
  client_cpu_s : float;
  node_cpu_s : float;
  finals : final list;
  all_client_ops : int;  (** preload + measured: what the daemons served *)
  store_dir_bytes : int;
  live_bytes : int;
  key_of_op_ns : float;
}

(* [trace_halves]: split the measurement into an untraced and a traced
   half ([Some first_traced]) for the tracing-overhead figure. *)
let run_round ?spans ~cfg ~d2d ~run_dir ~seed ~round ~seconds ~trace_halves () =
  let dir = Filename.concat run_dir (Printf.sprintf "round-%d-%d" (Unix.getpid ()) round) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let ds = ref [] in
  Fun.protect
    ~finally:(fun () ->
      if !ds <> [] then ignore (stop !ds);
      rm_rf dir)
    (fun () ->
      let t_setup = wall () in
      let port_base = port_base ~seed ~round in
      ds := List.init n_nodes (spawn ~d2d ~cfg ~dir ~port_base);
      (* The trace is generated while the daemons boot. *)
      let prep = prepare ?spans ~seed ~users:cfg.users ~target_mb:cfg.target_mb () in
      let trace_s = wall () -. t_setup in
      wait_listening !ds;
      (* Let the join announcements and first probes settle: at least
         1 s after the daemons started. *)
      Unix.sleepf (Float.max 0.3 (t_setup +. 1.0 -. wall ()));
      let t_preload = wall () in
      let ep =
        Tu.create
          ~node:(D2_net.Bootstrap.client_handle 0)
          ~addr_of:(Tu.loopback ~port_base ~n:n_nodes)
          ~listen:false ()
      in
      let client =
        R.Client.create ep ~replicas ~quorum_r:cfg.quorum ~quorum_w:cfg.quorum
          ~rpc_timeout ~seeds:(List.init n_nodes Fun.id) ()
      in
      let r = R.create ~now:wall prep in
      let poll () = R.Client.poll client ~timeout:0.001 in
      let preload_failed = R.preload r client ~window:cfg.window ~poll in
      let setup_s = wall () -. t_setup and preload_s = wall () -. t_preload in
      let cache = R.Client.cache client in
      D2_cache.Lookup_cache.reset_stats cache;
      let rpc0 = R.Client.lookup_rpcs client in
      let pids = List.map (fun d -> d.pid) !ds in
      let node_cpu () = List.fold_left (fun a p -> a +. proc_cpu p) 0.0 pids in
      let ncpu0 = node_cpu () and ccpu0 = cpu_s () and ticks0 = cpu_ticks () in
      let s =
        R.stream client
          ~ops:(Array.init (Array.length prep.trace.Op.ops) Fun.id)
          ~window:cfg.window ~cyclic:true ~barrier:false
      in
      let measure secs traced =
        r.R.spans <- (if traced then spans else None);
        let c0 = r.R.completed and t0 = wall () in
        r.R.stop_at <- t0 +. secs;
        R.pump r s;
        while not (R.idle s && R.exhausted r s) do
          (match r.R.spans with
          | Some sp ->
              let a = now_ns () in
              poll ();
              Spans.record sp Spans.Poll ~id:(-1) ~parent:(-1) ~t0:a ~t1:(now_ns ())
          | None -> poll ());
          R.pump r s
        done;
        { ops = r.R.completed - c0; secs = wall () -. t0; traced }
      in
      let halves =
        match trace_halves with
        | None -> [ measure seconds false ]
        | Some first_traced ->
            let a = measure (seconds /. 2.0) first_traced in
            [ a; measure (seconds /. 2.0) (not first_traced) ]
      in
      r.R.spans <- None;
      let steal = steal_share ticks0 (cpu_ticks ()) in
      let node_cpu_s = node_cpu () -. ncpu0 and client_cpu_s = cpu_s () -. ccpu0 in
      let store_dir_bytes =
        let sd = Filename.concat dir "store" in
        if Sys.file_exists sd then dir_bytes sd else 0
      in
      Tu.shutdown ep;
      let finals = stop !ds in
      ds := [];
      let measured_s = List.fold_left (fun a h -> a +. h.secs) 0.0 halves in
      {
        setup_s;
        trace_s;
        preload_s;
        steal;
        halves;
        measured_s;
        completed = r.R.completed;
        taken = r.R.taken;
        failed = r.R.failed + preload_failed;
        verify_errors = r.R.verify_errors;
        get_ms = r.R.get_ms;
        put_ms = r.R.put_ms;
        group_ms = r.R.group_ms;
        hits = D2_cache.Lookup_cache.hits cache;
        misses = D2_cache.Lookup_cache.misses cache;
        lookup_rpcs = R.Client.lookup_rpcs client - rpc0;
        client_cpu_s;
        node_cpu_s;
        finals;
        all_client_ops = Array.length prep.keys + r.R.completed;
        store_dir_bytes;
        live_bytes = R.live_bytes r;
        key_of_op_ns = prep.key_of_op_ns;
      })
