(* Tests for the virtual-time engine, topology, and TCP model. *)

module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Tcp = D2_simnet.Tcp
module Rng = D2_util.Rng

(* {1 Engine} *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~at:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~at:2.0 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~at:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~at:1.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~at:5.0 (fun () -> incr fired));
  Engine.run e ~until:2.0;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced to until" 2.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest fired" 2 !fired

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~at:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:5.0 (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule: time 1 is before now (5)") (fun () ->
      ignore (Engine.schedule e ~at:1.0 (fun () -> ())));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_in: negative delay") (fun () ->
      ignore (Engine.schedule_in e ~delay:(-1.0) (fun () -> ())))

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~at:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule_in e ~delay:1.0 (fun () -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 2.0 (Engine.now e)

let test_engine_pending () =
  let e = Engine.create () in
  Alcotest.(check int) "empty" 0 (Engine.pending e);
  let h = Engine.schedule e ~at:1.0 (fun () -> ()) in
  ignore (Engine.schedule e ~at:2.0 (fun () -> ()));
  Alcotest.(check int) "two queued" 2 (Engine.pending e);
  Engine.cancel h;
  (* Cancelled events are reaped when their time comes, not before. *)
  Alcotest.(check int) "still queued" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:1.0 ~until:5.5 (fun () -> incr count);
  Engine.run e;
  Alcotest.(check int) "5 ticks in 5.5s" 5 !count

(* {2 Timer-wheel cells}

   A random forest of closure events and posted cells.  Times are
   spread over every wheel level (< 2^8, < 2^16, < 2^24 ticks) and past
   the 2^24-tick horizon, where cells fall back to the heap; half of
   them sit on a band's first few whole ticks so closures and cells
   tie.  Every event schedules its children from inside its callback.
   The run stops at a few [~until] points and posts more roots from
   outside after each stop.  The engine must fire exactly what a naive
   reference fires: one pending list, always popping the least
   (time, scheduling order). *)

type wheel_ev = { id : int; cell : bool; offset : float; kids : wheel_ev list }
(* [offset] is an absolute time for the first roots, a delay otherwise. *)

let wheel_bands =
  [| (0.0, 256.0); (256.0, 65536.0); (65536.0, 16777216.0);
     (16777216.0, 33554432.0) |]

let wheel_time rng =
  let lo, hi = wheel_bands.(Rng.int rng (Array.length wheel_bands)) in
  if Rng.bool rng then lo +. float_of_int (Rng.int rng 3)
  else lo +. Rng.float rng (hi -. lo)

(* Roots for the start and for after each of three [~until] stops;
   each event has up to two children, down to three generations below
   its root. *)
let wheel_case ~roots ~seed =
  let rng = Rng.create seed in
  let next = ref 0 in
  let rec ev depth =
    let id = !next in
    incr next;
    let cell = Rng.bool rng in
    let offset = wheel_time rng in
    let nkids = if depth = 3 then 0 else Rng.int rng 3 in
    { id; cell; offset; kids = List.init nkids (fun _ -> ev (depth + 1)) }
  in
  let phase () = List.init roots (fun _ -> ev 0) in
  let stops = List.sort compare (List.init 3 (fun _ -> wheel_time rng)) in
  (phase (), List.map (fun u -> (u, phase ())) stops)

(* The engine's firing log [(id, time)] at each stop and at the end. *)
let wheel_engine_logs (first, later) =
  let e = Engine.create () in
  let log = ref [] in
  let cells = Hashtbl.create 64 in
  let fire = ref (fun _ -> ()) in
  let sink =
    Engine.register_sink e (fun tag id ->
        let ev = Hashtbl.find cells id in
        Alcotest.(check int) "tag delivered" (id land 7) tag;
        !fire ev)
  in
  let add ~absolute ev =
    if ev.cell then begin
      Hashtbl.replace cells ev.id ev;
      let tag = ev.id land 7 and payload = ev.id in
      if absolute then Engine.post e ~sink ~at:ev.offset ~tag ~payload
      else Engine.post_in e ~sink ~delay:ev.offset ~tag ~payload
    end
    else
      let fn () = !fire ev in
      ignore
        (if absolute then Engine.schedule e ~at:ev.offset fn
         else Engine.schedule_in e ~delay:ev.offset fn)
  in
  (fire :=
     fun ev ->
       log := (ev.id, Engine.now e) :: !log;
       List.iter (add ~absolute:false) ev.kids);
  List.iter (add ~absolute:true) first;
  let snaps =
    List.map
      (fun (u, roots) ->
        Engine.run e ~until:u;
        Alcotest.(check (float 0.0)) "clock at until" u (Engine.now e);
        let snap = List.rev !log in
        List.iter (add ~absolute:false) roots;
        snap)
      later
  in
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  snaps @ [ List.rev !log ]

let wheel_reference_logs (first, later) =
  let pending = ref [] and seq = ref 0 and log = ref [] in
  let add now ev =
    pending := (now +. ev.offset, !seq, ev) :: !pending;
    incr seq
  in
  let before (t, s, _) (t', s', _) = t < t' || (t = t' && s < s') in
  let rec drain until =
    match !pending with
    | [] -> ()
    | x :: rest ->
        let ((t, _, ev) as m) =
          List.fold_left (fun m y -> if before y m then y else m) x rest
        in
        if t <= until then begin
          pending := List.filter (fun y -> y != m) !pending;
          log := (ev.id, t) :: !log;
          List.iter (add t) ev.kids;
          drain until
        end
  in
  List.iter (add 0.0) first;
  let snaps =
    List.map
      (fun (u, roots) ->
        drain u;
        let snap = List.rev !log in
        List.iter (add u) roots;
        snap)
      later
  in
  drain infinity;
  snaps @ [ List.rev !log ]

let prop_wheel_cells_fire_in_order =
  QCheck.Test.make ~name:"cells and closures fire in (time, seq) order"
    ~count:100
    QCheck.(pair (int_range 1 16) int)
    (fun (roots, seed) ->
      let case = wheel_case ~roots ~seed in
      wheel_engine_logs case = wheel_reference_logs case)

(* {1 Topology} *)

let test_topology_symmetric () =
  let topo = Topology.create ~rng:(Rng.create 3) ~n:50 () in
  for _ = 1 to 100 do
    let rng = Rng.create 4 in
    let i = Rng.int rng 50 and j = Rng.int rng 50 in
    Alcotest.(check (float 1e-12)) "symmetric" (Topology.rtt topo i j)
      (Topology.rtt topo j i)
  done

let test_topology_positive_and_loopback () =
  let topo = Topology.create ~rng:(Rng.create 3) ~n:20 () in
  for i = 0 to 19 do
    for j = 0 to 19 do
      let r = Topology.rtt topo i j in
      if i = j then Alcotest.(check bool) "loopback small" true (r < 0.001)
      else Alcotest.(check bool) "positive" true (r > 0.0)
    done
  done

let test_topology_mean_near_90ms () =
  let topo = Topology.create ~rng:(Rng.create 3) ~n:200 () in
  let m = Topology.mean_rtt topo in
  Alcotest.(check bool) (Printf.sprintf "mean %.0f ms in [40,200]" (m *. 1000.0)) true
    (m > 0.04 && m < 0.2)

let test_topology_bounds () =
  let topo = Topology.create ~rng:(Rng.create 3) ~n:5 () in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology.rtt: node index out of range") (fun () ->
      ignore (Topology.rtt topo 0 5))

(* {1 TCP model} *)

let bw = 1_500_000.0

let test_tcp_cold_8kb_two_rtts () =
  (* The §9.3 footnote: a cold window needs 2 RTTs for an 8 KB block. *)
  let conn = Tcp.fresh_conn () in
  let rtt = 0.09 in
  let t = Tcp.transfer_time conn ~now:0.0 ~rtt ~bandwidth:bw ~bytes:8192 in
  Alcotest.(check (float 1e-9)) "2 rtts" (2.0 *. rtt) t

let test_tcp_warm_one_round () =
  let conn = Tcp.fresh_conn () in
  let rtt = 0.09 in
  (* Warm the window... *)
  let t1 = Tcp.transfer_time conn ~now:0.0 ~rtt ~bandwidth:bw ~bytes:65536 in
  (* ...then an 8 KB fetch soon after (within one RTO) takes one round. *)
  let t = Tcp.transfer_time conn ~now:(t1 +. 0.05) ~rtt ~bandwidth:bw ~bytes:8192 in
  Alcotest.(check bool) "single round" true (t <= rtt +. 1e-9)

let test_tcp_idle_resets_window () =
  let conn = Tcp.fresh_conn () in
  let rtt = 0.09 in
  ignore (Tcp.transfer_time conn ~now:0.0 ~rtt ~bandwidth:bw ~bytes:65536);
  Alcotest.(check bool) "window grew" true (Tcp.window conn ~now:0.4 () > 2.0);
  (* After > RTO idle the window is back to the initial 2 packets. *)
  let idle = 100.0 in
  Alcotest.(check (float 1e-9)) "reset" Tcp.initial_window (Tcp.window conn ~now:idle ());
  let t = Tcp.transfer_time conn ~now:idle ~rtt ~bandwidth:bw ~bytes:8192 in
  Alcotest.(check (float 1e-9)) "slow start again" (2.0 *. rtt) t

let test_tcp_bandwidth_bound () =
  (* A large transfer approaches the serialization time. *)
  let conn = Tcp.fresh_conn () in
  let bytes = 10_000_000 in
  let t = Tcp.transfer_time conn ~now:0.0 ~rtt:0.01 ~bandwidth:bw ~bytes in
  let line = float_of_int (bytes * 8) /. bw in
  Alcotest.(check bool) "not faster than the line" true (t >= line);
  Alcotest.(check bool) "within 2x of the line" true (t < 2.0 *. line)

let test_tcp_zero_bytes () =
  let conn = Tcp.fresh_conn () in
  let t = Tcp.transfer_time conn ~now:0.0 ~rtt:0.05 ~bandwidth:bw ~bytes:0 in
  Alcotest.(check (float 1e-9)) "one rtt for the request" 0.05 t

let test_tcp_validation () =
  let conn = Tcp.fresh_conn () in
  Alcotest.check_raises "negative size"
    (Invalid_argument "Tcp.transfer_time: negative size") (fun () ->
      ignore (Tcp.transfer_time conn ~now:0.0 ~rtt:0.05 ~bandwidth:bw ~bytes:(-1)));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Tcp.transfer_time: bandwidth must be positive") (fun () ->
      ignore (Tcp.transfer_time conn ~now:0.0 ~rtt:0.05 ~bandwidth:0.0 ~bytes:1))

let test_tcp_monotone_in_size () =
  let rtt = 0.05 in
  let time bytes =
    Tcp.transfer_time (Tcp.fresh_conn ()) ~now:0.0 ~rtt ~bandwidth:bw ~bytes
  in
  Alcotest.(check bool) "8k <= 64k" true (time 8192 <= time 65536);
  Alcotest.(check bool) "64k <= 1M" true (time 65536 <= time 1_000_000)

let () =
  Alcotest.run "d2_simnet"
    [
      ( "engine",
        [
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "pending" `Quick test_engine_pending;
          Alcotest.test_case "every" `Quick test_engine_every;
          QCheck_alcotest.to_alcotest prop_wheel_cells_fire_in_order;
        ] );
      ( "topology",
        [
          Alcotest.test_case "symmetric" `Quick test_topology_symmetric;
          Alcotest.test_case "positive + loopback" `Quick test_topology_positive_and_loopback;
          Alcotest.test_case "mean rtt plausible" `Quick test_topology_mean_near_90ms;
          Alcotest.test_case "bounds" `Quick test_topology_bounds;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "cold 8KB = 2 RTTs" `Quick test_tcp_cold_8kb_two_rtts;
          Alcotest.test_case "warm = 1 round" `Quick test_tcp_warm_one_round;
          Alcotest.test_case "idle resets window" `Quick test_tcp_idle_resets_window;
          Alcotest.test_case "bandwidth bound" `Quick test_tcp_bandwidth_bound;
          Alcotest.test_case "zero bytes" `Quick test_tcp_zero_bytes;
          Alcotest.test_case "validation" `Quick test_tcp_validation;
          Alcotest.test_case "monotone in size" `Quick test_tcp_monotone_in_size;
        ] );
    ]
