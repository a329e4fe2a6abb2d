(* wan_64: the paper's wide-area setting, in process.  64 nodes in a
   Transport_mem world over the default wide-area Topology (mean RTT
   about 90 ms), node defaults except a 2 s RPC timeout.  32 users,
   each its own Client with its own range cache, replay their access
   groups in order with a window of 8.  Virtual time makes every count
   and latency repeat exactly at one seed. *)

open Common
module Engine = D2_simnet.Engine
module Mem = D2_net.Transport_mem
module Node = D2_net.Node.Make (D2_net.Transport_mem)
module R = Replay.Make (D2_net.Transport_mem)

type scale = { users : int; target_mb : int }

let full = { users = 32; target_mb = 128 }
let n_nodes = 64
let window = 8
let rpc_timeout = 2.0
let client_slots = 256

(* Cross-user hand-offs (an op queued behind another user's op on the
   same key) issue from the other client's callback; they go out at
   the next step boundary, at most this much virtual time later. *)
let step_s = 0.005
let max_virtual_s = 1e6

type round = {
  setup_s : float;
  wall_s : float;  (** replay wall time *)
  cpu_s : float;  (** process CPU during the replay *)
  virtual_s : float;
  user_rate : float;  (** sum over users of ops / virtual time to finish *)
  taken : int;
  completed : int;
  failed : int;
  verify_errors : int;
  finished : bool;
  get_ms : Fbuf.t;
  put_ms : Fbuf.t;
  group_ms : Fbuf.t;
  hits : int;
  misses : int;
  lookup_rpcs : int;
  requests : int array;  (** per node, during the replay *)
  blocks : int array;  (** per node, at the end *)
  stored_bytes : int;
  live_bytes : int;
  repair_bytes : int;
  repair_sessions : int;
  key_of_op_ns : float;
}

(* Everything a determinism check compares: counts and virtual times. *)
let fingerprint r =
  let sum b = Array.fold_left ( +. ) 0.0 (Fbuf.contents b) in
  Printf.sprintf "%d/%d/%d/%d %h %h %h %h %h %d/%d/%d [%s] [%s] %d %d" r.taken
    r.completed r.failed r.verify_errors r.virtual_s r.user_rate (sum r.get_ms)
    (sum r.put_ms) (sum r.group_ms) r.hits r.misses r.lookup_rpcs
    (String.concat "," (Array.to_list (Array.map string_of_int r.requests)))
    (String.concat "," (Array.to_list (Array.map string_of_int r.blocks)))
    r.repair_bytes r.repair_sessions

let run_round ?spans ~scale ~seed () =
  let t_setup = wall () in
  let prep = prepare ?spans ~seed ~users:scale.users ~target_mb:scale.target_mb () in
  let engine = Engine.create () in
  let topology =
    D2_simnet.Topology.create ~rng:(Rng.create 0x7e64)
      ~n:(n_nodes + client_slots + 1) ()
  in
  (* The deployment is fixed; the seed places the users. *)
  let slot =
    let perm = Array.init client_slots Fun.id and rng = Rng.create (seed lxor 0x51075) in
    for i = client_slots - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    fun u -> n_nodes + 1 + perm.(u)
  in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed () in
  let config = { D2_net.Node.default_config with rpc_timeout } in
  let peers = D2_net.Bootstrap.peers n_nodes in
  let nodes =
    List.map
      (fun (i, id) -> Node.create (Mem.endpoint net ~node:i) ~config ~id ~peers ())
      peers
    |> Array.of_list
  in
  Array.iter Node.serve nodes;
  Engine.run engine ~until:3.0;
  let seeds_from u = List.init n_nodes (fun j -> (u + j) mod n_nodes) in
  let r = R.create ?spans ~now:(fun () -> Engine.now engine) prep in
  let loader =
    R.Client.create
      (Mem.endpoint net ~node:n_nodes)
      ~replicas:config.replicas ~rpc_timeout ~seeds:(seeds_from 0) ()
  in
  let preload_failed =
    R.preload r loader ~window:256 ~poll:(fun () ->
        R.Client.poll loader ~timeout:0.01)
  in
  let setup_s = wall () -. t_setup in
  let by_user = Array.make scale.users [] in
  for i = Array.length prep.trace.Op.ops - 1 downto 0 do
    let u = prep.trace.Op.ops.(i).Op.user in
    by_user.(u) <- i :: by_user.(u)
  done;
  let streams =
    Array.mapi
      (fun u ops ->
        let c =
          R.Client.create
            (Mem.endpoint net ~node:(slot u))
            ~replicas:config.replicas ~rpc_timeout ~seeds:(seeds_from u) ()
        in
        R.stream c ~ops:(Array.of_list ops) ~window ~cyclic:false ~barrier:true)
      by_user
  in
  let served () = Array.map Node.requests_served nodes in
  let repair () =
    Array.fold_left
      (fun (b, s) n ->
        let st = Node.repair_stats n in
        (b + st.D2_net.Node.repair_bytes, s + st.D2_net.Node.sessions))
      (0, 0) nodes
  in
  let req0 = served () and rb0, rs0 = repair () in
  let v0 = Engine.now engine and w0 = wall () and c0 = cpu_s () in
  let flush s =
    s.R.dirty <- false;
    R.Client.poll s.R.client ~timeout:0.0
  in
  Array.iter (R.pump r) streams;
  Array.iter flush streams;
  let busy s = not (R.idle s && R.exhausted r s) in
  while Array.exists busy streams && Engine.now engine -. v0 < max_virtual_s do
    let t = match spans with Some _ -> now_ns () | None -> 0 in
    Engine.run engine ~until:(Engine.now engine +. step_s);
    (match spans with
    | Some sp -> Spans.record sp Spans.Step ~id:(-1) ~parent:(-1) ~t0:t ~t1:(now_ns ())
    | None -> ());
    Array.iter (fun s -> if s.R.dirty then flush s) streams
  done;
  let finished = not (Array.exists busy streams) in
  let wall_s = wall () -. w0 and cpu = cpu_s () -. c0 in
  let virtual_s = Engine.now engine -. v0 in
  Array.iter Node.stop nodes;
  let req = Array.mapi (fun i n -> n - req0.(i)) (served ()) in
  let rb, rs = repair () in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 streams in
  let cache s = R.Client.cache s.R.client in
  {
    setup_s;
    wall_s;
    cpu_s = cpu;
    virtual_s;
    user_rate =
      Array.fold_left
        (fun a s ->
          if R.n_ops s = 0 then a
          else a +. (float_of_int (R.n_ops s) /. (s.R.finished_at -. v0)))
        0.0 streams;
    taken = r.R.taken;
    completed = r.R.completed;
    failed = r.R.failed + preload_failed;
    verify_errors = r.R.verify_errors;
    finished;
    get_ms = r.R.get_ms;
    put_ms = r.R.put_ms;
    group_ms = r.R.group_ms;
    hits = sum (fun s -> D2_cache.Lookup_cache.hits (cache s));
    misses = sum (fun s -> D2_cache.Lookup_cache.misses (cache s));
    lookup_rpcs = sum (fun s -> R.Client.lookup_rpcs s.R.client);
    requests = req;
    blocks = Array.map (fun n -> D2_net.Blockstore.count (Node.store n)) nodes;
    stored_bytes =
      Array.fold_left
        (fun a n -> a + D2_net.Blockstore.stored_bytes (Node.store n))
        0 nodes;
    live_bytes = R.live_bytes r;
    repair_bytes = rb - rb0;
    repair_sessions = rs - rs0;
    key_of_op_ns = prep.key_of_op_ns;
  }
