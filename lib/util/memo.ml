type 'v level = Stage of ('v -> int) option | Unit | Cache

type 'v t = {
  entries : (string, string * 'v) Hashtbl.t;  (* name -> (key, value) *)
  lock : Mutex.t;
  cap : int;
  store : (Cache_store.t * string) option;
  hit : string;
  miss : string;
  credit : (string * ('v -> int)) option;
      (* store replays of a whole stage credit its units here *)
}

let create ~stage level ~cap ~store =
  let name outcome = "incr." ^ stage ^ "." ^ outcome in
  let hit, miss, credit =
    match level with
    | Stage units ->
      ( name "skipped",
        name "ran",
        Option.map (fun u -> (name "proc_skipped", u)) units )
    | Unit -> (name "proc_skipped", name "proc_ran", None)
    | Cache -> (stage ^ ".cache_hits", stage ^ ".cache_misses", None)
  in
  { entries = Hashtbl.create 16; lock = Mutex.create (); cap; store; hit;
    miss; credit }

let count ?by name = Metrics.incr ?by (Metrics.counter name)

let record t ~name ~key v =
  if Hashtbl.length t.entries >= t.cap then Hashtbl.reset t.entries;
  Hashtbl.replace t.entries name (key, v);
  v

let in_table t ~name ~key =
  match Hashtbl.find_opt t.entries name with
  | Some (k, v) when String.equal k key -> Some v
  | _ -> None

let in_store t ~key =
  Option.bind t.store (fun (s, stage) -> Cache_store.get s ~stage ~key)

let find t ~name ~key compute =
  Mutex.protect t.lock @@ fun () ->
  match in_table t ~name ~key with
  | Some v ->
    count t.hit;
    Ok v
  | None -> (
    match in_store t ~key with
    | Some v ->
      count t.hit;
      Option.iter (fun (c, units) -> count ~by:(units v) c) t.credit;
      Ok (record t ~name ~key v)
    | None -> (
      count t.miss;
      match compute () with
      | Ok v ->
        Option.iter (fun (s, stage) -> Cache_store.put s ~stage ~key v) t.store;
        Ok (record t ~name ~key v)
      | Error _ as e -> e))

let peek t ~name ~key =
  Mutex.protect t.lock @@ fun () ->
  match in_table t ~name ~key with
  | Some _ as v -> v
  | None -> in_store t ~key

let get t ~name ~key compute =
  Result.get_ok (find t ~name ~key (fun () -> Ok (compute ())))

let clear t = Mutex.protect t.lock @@ fun () -> Hashtbl.reset t.entries
