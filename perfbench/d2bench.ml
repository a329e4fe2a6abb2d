(* d2bench: the benchmark harness.  run.py builds it and bin/d2d.exe
   from source and calls

     d2bench.exe --workload W --seed N --seconds S --trace 0|1
                 --d2d PATH --run-dir DIR [--scale full|tiny]

   It prints a machine record, a readable report, and as its last line
   the JSON result: the end-to-end metrics when --trace 0, the
   per-layer metrics when --trace 1.  README.md explains the workloads
   and the metrics. *)

open Common

let e2e_units =
  [
    ("ops_per_s", "1/s");
    ("get_p50_ms", "ms");
    ("get_p99_ms", "ms");
    ("put_p50_ms", "ms");
    ("put_p90_ms", "ms");
    ("group_p50_ms", "ms");
    ("group_p90_ms", "ms");
    ("storage_max_over_mean", "ratio");
    ("store_bytes_per_user_byte", "ratio");
    ("setup_s", "s");
  ]

let layer_units =
  [
    ("cache.hit_ratio", "ratio");
    ("cache.misses", "count");
    ("dht.lookup_rpcs_per_op", "count");
    ("dht.rpcs_per_lookup", "count");
    ("client.issue_us_p50", "us");
    ("client.poll_us_per_op", "us");
    ("client.cpu_us_per_op", "us");
    ("node.cpu_us_per_op", "us");
    ("node.requests_per_op", "count");
    ("node.requests_max_over_mean", "ratio");
    ("store.put_us_p50", "us");
    ("store.get_us_p50", "us");
    ("store.get_us_p99", "us");
    ("store.flush_us_p50", "us");
    ("store.puts_per_fsync", "count");
    ("store.cache_hit_ratio", "ratio");
    ("store.disk_bytes_per_live_byte", "ratio");
    ("sync.repair_bytes_per_op", "bytes");
    ("sync.repair_sessions", "count");
    ("trace.key_of_op_ns", "ns");
    ("memnet.cpu_us_per_op", "us");
    ("tracing.overhead_ratio", "ratio");
  ]

(* Metrics in the declared order; a layer the workload does not run
   reads 0. *)
let metrics_of units values =
  List.map
    (fun (name, u) ->
      m name u (match List.assoc_opt name values with Some v -> v | None -> 0.0))
    units

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun a x -> a + f x) 0 xs

let max_over_mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else
    let mx = Array.fold_left max 0 xs and tot = Array.fold_left ( + ) 0 xs in
    ratio (fi mx) (fi tot /. fi n)

let pooled f rounds =
  let b = Fbuf.create () in
  List.iter (fun r -> Fbuf.append b (f r)) rounds;
  b

let latency_metrics ~get ~put ~group =
  [
    ("get_p50_ms", Fbuf.pct get 50.0);
    ("get_p99_ms", Fbuf.pct get 99.0);
    ("put_p50_ms", Fbuf.pct put 50.0);
    ("put_p90_ms", Fbuf.pct put 90.0);
    ("group_p50_ms", Fbuf.pct group 50.0);
    ("group_p90_ms", Fbuf.pct group 90.0);
  ]

(* The range cache and the redirect chain behind its misses. *)
let lookup_metrics ~hits ~misses ~rpcs ~ops =
  [
    ("cache.hit_ratio", ratio (fi hits) (fi (hits + misses)));
    ("cache.misses", fi misses);
    ("dht.lookup_rpcs_per_op", ratio (fi rpcs) (fi ops));
    ("dht.rpcs_per_lookup", ratio (fi rpcs) (fi misses));
  ]

(* Self time per traced layer, for the report. *)
let print_layers spans ~ops =
  let s = Spans.summarize spans in
  Printf.printf "traced layers (%d spans; self time excludes nested calls):\n" spans.Spans.n;
  Printf.printf "  %-18s %10s %12s %12s %12s\n" "span" "count" "total ms" "self ms" "self us/op";
  let op = s Spans.Op in
  Printf.printf "  %-18s %10d   mean latency %.3f ms (ops overlap: no self time)\n"
    (Spans.name Spans.Op) op.Spans.count
    (ratio (fi op.Spans.total_ns /. 1e6) (fi op.Spans.count));
  List.iter
    (fun k ->
      let x = s k in
      if x.Spans.count > 0 && k <> Spans.Op then
        Printf.printf "  %-18s %10d %12.1f %12.1f %12.3f\n" (Spans.name k) x.Spans.count
          (fi x.Spans.total_ns /. 1e6) (fi x.Spans.self_ns /. 1e6)
          (ratio (fi x.Spans.self_ns /. 1e3) (fi ops)))
    Spans.kinds;
  s

let span_p50_us s k =
  let d = (s k).Spans.durations in
  if Array.length d = 0 then 0.0 else D2_util.Stats.percentile d 50.0 /. 1000.0

let span_mean_ns s k =
  let x = s k in
  ratio (fi x.Spans.total_ns) (fi x.Spans.count)

(* {1 The machine record} *)

let first_line path =
  try In_channel.with_open_text path In_channel.input_line |> Option.value ~default:"?"
  with Sys_error _ -> "?"

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.length l > 10 && String.sub l 0 10 = "model name")
    |> fun l -> String.trim (List.nth (String.split_on_char ':' l) 1)
  with _ -> "?"

(* The filesystem type of the longest mount point above [dir]. *)
let fs_type dir =
  let dir = try Unix.realpath dir with _ -> dir in
  let under mp =
    mp = "/" || dir = mp
    || String.length dir > String.length mp
       && String.sub dir 0 (String.length mp) = mp
       && dir.[String.length mp] = '/'
  in
  try
    In_channel.with_open_text "/proc/mounts" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | _ :: mp :: ty :: _ when under mp -> Some (mp, ty)
           | _ -> None)
    |> List.fold_left
         (fun (bm, bt) (mp, ty) ->
           if String.length mp >= String.length bm then (mp, ty) else (bm, bt))
         ("", "?")
    |> snd
  with _ -> "?"

(* A fixed integer loop; its time tracks the host's current speed. *)
let calibrate () =
  let t0 = wall () in
  let x = ref 1 in
  for i = 1 to 200_000_000 do
    x := (!x * 1103515245) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !x);
  wall () -. t0

let print_machine run_dir =
  Printf.printf "machine: nproc=%d cpu=%S kernel=%s ocaml=%s store_fs=%s calibration_s=%.3f\n%!"
    (Domain.recommended_domain_count ())
    (cpu_model ())
    (first_line "/proc/sys/kernel/osrelease")
    Sys.ocaml_version (fs_type run_dir) (calibrate ())

(* Every round (lan) or trace (wan) replays its own trace, generated
   from the run's seed and its index: a run averages over several
   traces, so the figures depend less on one trace's group structure. *)
let round_seed seed i = (seed * 1009) + i

(* {1 lan_mem and lan_disk_q2} *)

(* The host is shared: while the hypervisor runs other guests, this
   one loses CPU time (steal) and every wall-clock figure sags.  A lan
   run measures at least [lan_rounds] rounds of [seconds / lan_rounds]
   each, and more, up to [lan_max_rounds] and a time cap, until
   [lan_kept] of them were quiet (steal below [quiet_steal] while
   measuring).  Each end-to-end figure is the median over the
   [lan_kept] rounds that lost the least time to steal. *)
let lan_rounds = 6
let lan_kept = 4
let lan_max_rounds = 9
let lan_cap_s = 90.0
let quiet_steal = 0.04

let run_lan ~cfg ~seed ~seconds ~traced ~d2d ~run_dir ~spans_file =
  let spans = if traced then Some (Spans.create ()) else None in
  let per_round = seconds /. fi lan_rounds in
  let t_start = wall () in
  let rec go round acc quiet =
    if
      round >= lan_max_rounds
      || round >= lan_rounds
         && (quiet >= lan_kept || wall () -. t_start > lan_cap_s)
    then List.rev acc
    else begin
      let r =
        Lan.run_round ?spans ~cfg ~d2d ~run_dir ~seed:(round_seed seed round) ~round
          ~seconds:per_round
          ~trace_halves:(if traced then Some (round mod 2 = 0) else None)
          ()
      in
      Printf.printf
        "round %d: setup %.3f s (trace %.3f, preload %.3f), %d ops in %.3f s (%.0f/s, get p50/p90/p99 %.3f/%.3f/%.3f ms, put p50/p90/p99 %.3f/%.3f/%.3f ms), steal %.1f%%, %d failed, %d verify errors\n%!"
        round r.Lan.setup_s r.Lan.trace_s r.Lan.preload_s r.Lan.completed r.Lan.measured_s
        (ratio (fi r.Lan.completed) r.Lan.measured_s)
        (Fbuf.pct r.Lan.get_ms 50.0) (Fbuf.pct r.Lan.get_ms 90.0) (Fbuf.pct r.Lan.get_ms 99.0)
        (Fbuf.pct r.Lan.put_ms 50.0) (Fbuf.pct r.Lan.put_ms 90.0) (Fbuf.pct r.Lan.put_ms 99.0)
        (100.0 *. r.Lan.steal) r.Lan.failed r.Lan.verify_errors;
      go (round + 1) (r :: acc) (if r.Lan.steal < quiet_steal then quiet + 1 else quiet)
    end
  in
  let rounds = go 0 [] 0 in
  let measured =
    List.filteri
      (fun i _ -> i < lan_kept)
      (List.stable_sort (fun a b -> compare a.Lan.steal b.Lan.steal) rounds)
  in
  Printf.printf "%d rounds; figures from the %d with the least steal\n"
    (List.length rounds) (List.length measured);
  let ops = sumi (fun r -> r.Lan.completed) rounds in
  let failed = sumi (fun r -> r.Lan.failed) rounds in
  let verify_errors = sumi (fun r -> r.Lan.verify_errors) rounds in
  let daemons_ok =
    List.for_all (fun r -> List.for_all (fun f -> f.Lan.exit_ok) r.Lan.finals) rounds
  in
  let finals_arr f r = Array.of_list (List.map f r.Lan.finals) in
  let by_round =
    List.map
      (fun r ->
        ("ops_per_s", ratio (fi r.Lan.completed) r.Lan.measured_s)
        :: latency_metrics ~get:r.Lan.get_ms ~put:r.Lan.put_ms ~group:r.Lan.group_ms)
      measured
  in
  let e2e =
    List.map
      (fun (name, _) -> (name, median (List.map (List.assoc name) by_round)))
      (List.hd by_round)
    @ [
        ( "storage_max_over_mean",
          median
            (List.map (fun r -> max_over_mean (finals_arr (fun f -> f.Lan.blocks) r)) rounds) );
        ( "store_bytes_per_user_byte",
          median
            (List.map
               (fun r ->
                 let held =
                   if cfg.Lan.disk then r.Lan.store_dir_bytes
                   else sumi (fun f -> f.Lan.bytes) r.Lan.finals
                 in
                 ratio (fi held) (fi (r.Lan.live_bytes * Lan.replicas)))
               rounds) );
        ("setup_s", median (List.map (fun r -> r.Lan.setup_s) rounds));
      ]
  in
  let store_errors = ref 0 in
  let layers =
    match spans with
    | None -> []
    | Some sp ->
        let store =
          if not cfg.Lan.disk then []
          else begin
            let prep =
              prepare ~seed:(round_seed seed 0) ~users:cfg.Lan.users
                ~target_mb:cfg.Lan.target_mb ()
            in
            let dir =
              Filename.concat run_dir (Printf.sprintf "store-replay-%d" (Unix.getpid ()))
            in
            Lan.rm_rf dir;
            let o =
              Fun.protect
                ~finally:(fun () -> Lan.rm_rf dir)
                (fun () ->
                  Store_replay.run ~spans:sp ~prep ~dir ~window:cfg.Lan.window
                    ~seconds:per_round)
            in
            store_errors := o.Store_replay.verify_errors;
            Printf.printf "store replay: %d ops, %d puts, %d fsyncs, %d verify errors\n"
              o.Store_replay.ops o.Store_replay.puts o.Store_replay.fsyncs
              o.Store_replay.verify_errors;
            [
              ("store.put_us_p50", Fbuf.pct o.Store_replay.put_us 50.0);
              ("store.get_us_p50", Fbuf.pct o.Store_replay.get_us 50.0);
              ("store.get_us_p99", Fbuf.pct o.Store_replay.get_us 99.0);
              ("store.flush_us_p50", Fbuf.pct o.Store_replay.flush_us 50.0);
              ("store.puts_per_fsync", ratio (fi o.Store_replay.puts) (fi o.Store_replay.fsyncs));
              ( "store.cache_hit_ratio",
                ratio (fi o.Store_replay.cache_hits)
                  (fi (o.Store_replay.cache_hits + o.Store_replay.cache_misses)) );
              ( "store.disk_bytes_per_live_byte",
                ratio (fi o.Store_replay.file_bytes) (fi o.Store_replay.live_bytes) );
            ]
          end
        in
        let traced_ops =
          sumi (fun r -> sumi (fun h -> if h.Lan.traced then h.Lan.ops else 0) r.Lan.halves) rounds
        in
        let s = print_layers sp ~ops:traced_ops in
        Spans.write sp spans_file;
        let half_rate t =
          let hs =
            List.concat_map (fun r -> List.filter (fun h -> h.Lan.traced = t) r.Lan.halves) rounds
          in
          ratio (fi (sumi (fun h -> h.Lan.ops) hs)) (sumf (fun h -> h.Lan.secs) hs)
        in
        let served = List.map (fun r -> finals_arr (fun f -> f.Lan.served) r) rounds in
        lookup_metrics
          ~hits:(sumi (fun r -> r.Lan.hits) rounds)
          ~misses:(sumi (fun r -> r.Lan.misses) rounds)
          ~rpcs:(sumi (fun r -> r.Lan.lookup_rpcs) rounds)
          ~ops
        @ [
          ("client.issue_us_p50", span_p50_us s Spans.Issue);
          ("client.poll_us_per_op", ratio (fi (s Spans.Poll).Spans.self_ns /. 1e3) (fi traced_ops));
          ("client.cpu_us_per_op", ratio (sumf (fun r -> r.Lan.client_cpu_s) rounds *. 1e6) (fi ops));
          ("node.cpu_us_per_op", ratio (sumf (fun r -> r.Lan.node_cpu_s) rounds *. 1e6) (fi ops));
          ( "node.requests_per_op",
            ratio
              (fi (sumi (fun a -> Array.fold_left ( + ) 0 a) served))
              (fi (sumi (fun r -> r.Lan.all_client_ops) rounds)) );
          ("node.requests_max_over_mean", median (List.map max_over_mean served));
          ("trace.key_of_op_ns", span_mean_ns s Spans.Key_of_op);
          ("tracing.overhead_ratio", ratio (half_rate false) (half_rate true));
        ]
        @ store
  in
  let correct = verify_errors = 0 && !store_errors = 0 && daemons_ok in
  if not daemons_ok then print_endline "error: a daemon did not exit 0 on SIGTERM";
  ( {
      correct;
      attempted = sumi (fun r -> r.Lan.taken) rounds;
      failed;
      metrics = (if traced then metrics_of layer_units layers else metrics_of e2e_units e2e);
    },
    verify_errors )

(* {1 wan_64} *)

(* One 32-user trace per 2.5 s of --seconds, each under its own seed. *)
let wan_traces seconds = max 1 (int_of_float (seconds /. 2.5))

let run_wan ~scale ~seed ~seconds ~traced ~spans_file =
  let spans = if traced then Some (Spans.create ()) else None in
  let k = wan_traces seconds in
  let rounds =
    List.init k (fun i ->
        let r = Wan.run_round ?spans ~scale ~seed:(round_seed seed i) () in
        Printf.printf
          "trace %d: setup %.3f s, %d ops in %.1f virtual s (%.3f wall s), %d failed, %d \
           verify errors\n%!"
          i r.Wan.setup_s r.Wan.completed r.Wan.virtual_s r.Wan.wall_s r.Wan.failed
          r.Wan.verify_errors;
        r)
  in
  let ops = sumi (fun r -> r.Wan.completed) rounds in
  let verify_errors = sumi (fun r -> r.Wan.verify_errors) rounds in
  let finished = List.for_all (fun r -> r.Wan.finished) rounds in
  let e2e =
    ("ops_per_s", sumf (fun r -> r.Wan.user_rate) rounds /. fi k)
    :: latency_metrics
         ~get:(pooled (fun r -> r.Wan.get_ms) rounds)
         ~put:(pooled (fun r -> r.Wan.put_ms) rounds)
         ~group:(pooled (fun r -> r.Wan.group_ms) rounds)
    @ [
        ("storage_max_over_mean", median (List.map (fun r -> max_over_mean r.Wan.blocks) rounds));
        ( "store_bytes_per_user_byte",
          ratio
            (fi (sumi (fun r -> r.Wan.stored_bytes) rounds))
            (fi (sumi (fun r -> r.Wan.live_bytes * 3) rounds)) );
        ("setup_s", median (List.map (fun r -> r.Wan.setup_s) rounds));
      ]
  in
  let deterministic = ref true in
  let layers =
    match spans with
    | None -> []
    | Some sp ->
        (* The shortest trace once more without spans: tracing must not
           change a single count, and the two wall times give the
           tracing overhead. *)
        let i, shortest =
          List.fold_left
            (fun (bi, b) (i, r) -> if r.Wan.taken < b.Wan.taken then (i, r) else (bi, b))
            (0, List.hd rounds)
            (List.mapi (fun i r -> (i, r)) rounds)
        in
        let plain = Wan.run_round ~scale ~seed:(round_seed seed i) () in
        deterministic := Wan.fingerprint plain = Wan.fingerprint shortest;
        Printf.printf "untraced repeat of trace %d: %s\n" i
          (if !deterministic then "identical counts and virtual times" else "DIFFERS");
        let s = print_layers sp ~ops in
        Spans.write sp spans_file;
        let req = List.map (fun r -> r.Wan.requests) rounds in
        lookup_metrics
          ~hits:(sumi (fun r -> r.Wan.hits) rounds)
          ~misses:(sumi (fun r -> r.Wan.misses) rounds)
          ~rpcs:(sumi (fun r -> r.Wan.lookup_rpcs) rounds)
          ~ops
        @ [
          ("client.issue_us_p50", span_p50_us s Spans.Issue);
          ( "node.requests_per_op",
            ratio (fi (sumi (fun a -> Array.fold_left ( + ) 0 a) req)) (fi ops) );
          ("node.requests_max_over_mean", median (List.map max_over_mean req));
          ( "sync.repair_bytes_per_op",
            ratio (fi (sumi (fun r -> r.Wan.repair_bytes) rounds)) (fi ops) );
          ("sync.repair_sessions", fi (sumi (fun r -> r.Wan.repair_sessions) rounds));
          ("trace.key_of_op_ns", span_mean_ns s Spans.Key_of_op);
          ("memnet.cpu_us_per_op", ratio (sumf (fun r -> r.Wan.cpu_s) rounds *. 1e6) (fi ops));
          ( "tracing.overhead_ratio",
            ratio shortest.Wan.wall_s plain.Wan.wall_s );
        ]
  in
  if not finished then print_endline "error: a replay did not finish";
  ( {
      correct = verify_errors = 0 && finished && !deterministic;
      attempted = sumi (fun r -> r.Wan.taken) rounds;
      failed = sumi (fun r -> r.Wan.failed) rounds;
      metrics = (if traced then metrics_of layer_units layers else metrics_of e2e_units e2e);
    },
    verify_errors )

(* {1 Entry point} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 12.0 and trace = ref 0 in
  let d2d = ref "_build/default/bin/d2d.exe" and run_dir = ref ".perfbench_run" in
  let scale = ref "full" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "lan_mem | lan_disk_q2 | wan_64");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--d2d", Arg.Set_string d2d, "path of the d2d daemon");
      ("--run-dir", Arg.Set_string run_dir, "scratch directory inside the checkout");
      ("--scale", Arg.Set_string scale, "full | tiny (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "d2bench --workload W --seed N --seconds S --trace 0|1";
  let tiny = !scale = "tiny" in
  if (not tiny) && !scale <> "full" then failwith "--scale must be full or tiny";
  if !trace <> 0 && !trace <> 1 then failwith "--trace must be 0 or 1";
  if !seconds <= 0.0 then failwith "--seconds must be positive";
  (try Unix.mkdir !run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  print_machine !run_dir;
  let traced = !trace = 1 in
  let spans_file = Filename.concat !run_dir (Printf.sprintf "spans-%s.tsv" !workload) in
  let lan disk =
    let cfg =
      {
        Lan.disk;
        quorum = (if disk then 2 else 1);
        window = (if disk then 64 else 16);
        users = (if tiny then 4 else 83);
        target_mb = (if tiny then 4 else 256);
      }
    in
    run_lan ~cfg ~seed:!seed ~seconds:!seconds ~traced ~d2d:!d2d ~run_dir:!run_dir ~spans_file
  in
  let steal0, total0 = cpu_ticks () in
  let result, verify_errors =
    match !workload with
    | "lan_mem" -> lan false
    | "lan_disk_q2" -> lan true
    | "wan_64" ->
        let scale = if tiny then { Wan.users = 4; target_mb = 4 } else Wan.full in
        run_wan ~scale ~seed:!seed ~seconds:!seconds ~traced ~spans_file
    | w -> failwith ("unknown workload " ^ w)
  in
  let steal1, total1 = cpu_ticks () in
  Printf.printf "host: %.1f%% of CPU time stolen by other guests during the run\n"
    (100.0 *. ratio (fi (steal1 - steal0)) (fi (total1 - total0)));
  Printf.printf "failed_share %.6f (%d of %d ops), verify errors %d\n"
    (ratio (fi result.failed) (fi result.attempted))
    result.failed result.attempted verify_errors;
  print_metrics (if traced then "per-layer metrics:" else "end-to-end metrics:") result.metrics;
  print_endline (result_json result)
