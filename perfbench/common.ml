(* Pieces every workload shares: clocks, the seeded trace and its keys,
   the payload scheme the byte-for-byte check relies on, and the result
   record printed as the run's last line. *)

module Key = D2_keyspace.Key
module Op = D2_trace.Op
module Rng = D2_util.Rng
module Vec = D2_util.Vec

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let wall () = Unix.gettimeofday ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Aggregate (steal, total) CPU ticks from /proc/stat.  Time the
   hypervisor gives to other guests shows up as steal. *)
let cpu_ticks () =
  match
    String.split_on_char ' '
      (In_channel.with_open_text "/proc/stat" In_channel.input_line
      |> Option.value ~default:"")
  with
  | "cpu" :: rest ->
      let v = List.filter_map int_of_string_opt rest in
      (List.nth v 7, List.fold_left ( + ) 0 v)
  | _ | (exception _) -> (0, 0)

let steal_share (s0, t0) (s1, t1) =
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

(* {1 The workload}

   One day of the synthetic Harvard trace under the D2 keymap.  Keys
   get dense ids so the replay's per-key state lives in flat arrays. *)

type prep = {
  trace : Op.t;
  kid : int array;  (** per op: the id of the key it touches *)
  keys : Key.t array;  (** per key id *)
  key_str : string array;  (** per key id: the key's bytes *)
  first_len : int array;  (** per key id: payload length of the preload *)
  group : int array;  (** per op: its access group (think time 1 s) *)
  group_size : int array;  (** per group: op count *)
  group_user : int array;  (** per group: its user *)
  key_of_op_ns : float;  (** mean wall time of one [Keymap.key_of_op] *)
}

let op_len (o : Op.op) = max 1 (min o.Op.bytes D2_net.Wire.max_payload)

let prepare ?spans ~seed ~users ~target_mb () =
  let params =
    {
      D2_trace.Harvard.default_params with
      users;
      days = 1.0;
      target_bytes = target_mb lsl 20;
    }
  in
  let trace = D2_trace.Harvard.generate ~rng:(Rng.create seed) ~params () in
  let ops = trace.Op.ops in
  let n = Array.length ops in
  if n = 0 then failwith "empty trace";
  let keymap = D2_trace.Keymap.create D2_trace.Keymap.D2 ~volume:"/perfbench" in
  let t0 = now_ns () in
  let op_keys =
    match spans with
    | None -> Array.map (D2_trace.Keymap.key_of_op keymap) ops
    | Some sp ->
        Array.map
          (fun o ->
            let s = now_ns () in
            let k = D2_trace.Keymap.key_of_op keymap o in
            Spans.record sp Spans.Key_of_op ~id:(-1) ~parent:(-1) ~t0:s
              ~t1:(now_ns ());
            k)
          ops
  in
  let key_of_op_ns = float_of_int (now_ns () - t0) /. float_of_int n in
  let ids = Key.Table.create 4096 in
  let keys = Vec.create () and lens = Vec.create () in
  let kid =
    Array.mapi
      (fun i key ->
        match Key.Table.find_opt ids key with
        | Some id -> id
        | None ->
            let id = Vec.length keys in
            Key.Table.add ids key id;
            Vec.push keys key;
            Vec.push lens (op_len ops.(i));
            id)
      op_keys
  in
  let groups, labels = D2_trace.Task.access_groups_labeled trace in
  let keys = Vec.to_array keys in
  {
    trace;
    kid;
    keys;
    key_str = Array.map Key.to_string keys;
    first_len = Vec.to_array lens;
    group = labels;
    group_size = Array.map (fun g -> Array.length g.D2_trace.Task.ops) groups;
    group_user = Array.map (fun g -> g.D2_trace.Task.user) groups;
    key_of_op_ns;
  }

(* {1 Payloads}

   A block's bytes are a function of (key, version, length): a 72-byte
   tag (version, then the key) repeated.  The replay remembers only
   the acked version and length of each key and rebuilds the expected
   bytes to compare a get against, so checking every read needs no
   copy of the data set. *)

let tag_len = 8 + Key.size

let fill buf ~len ~key_str ~ver =
  let off = ref 0 in
  while !off < len do
    let o = !off in
    for j = 0 to min 8 (len - o) - 1 do
      Bytes.unsafe_set buf (o + j) (Char.unsafe_chr ((ver lsr (8 * j)) land 0xff))
    done;
    let ko = o + 8 in
    if ko < len then Bytes.blit_string key_str 0 buf ko (min Key.size (len - ko));
    off := o + tag_len
  done

let payload ~len ~key_str ~ver =
  let b = Bytes.create len in
  fill b ~len ~key_str ~ver;
  Bytes.unsafe_to_string b

(* One reusable buffer per payload length; a check rebuilds the
   expected block into it and compares. *)
type checker = Bytes.t option array

let checker () : checker = Array.make (D2_net.Wire.max_payload + 1) None

let matches (c : checker) ~len ~key_str ~ver data =
  String.length data = len
  &&
  let b =
    match c.(len) with
    | Some b -> b
    | None ->
        let b = Bytes.create len in
        c.(len) <- Some b;
        b
  in
  fill b ~len ~key_str ~ver;
  String.equal data (Bytes.unsafe_to_string b)

let median xs =
  match xs with [] -> 0.0 | _ -> D2_util.Stats.median (Array.of_list xs)

(* {1 The result} *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric value"

let result_json r =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
          (json_float m.value) m.unit_)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " ms)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6g %s\n" m.name m.value m.unit_)
    ms;
  flush stdout
