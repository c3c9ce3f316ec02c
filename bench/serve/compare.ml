(* main.exe compare A.json... -- B.json...

   Compares two sets of result files (--json) workload by workload and
   metric by metric, by the rule for a small sandbox: B is "better" only if
   it wins at least nine tenths of the pairs (run i of A against run i of
   B, ties counting for neither) and its median differs from A's by more
   than A's quartile spread; "worse" if its median is worse than A's by
   more than the metric's bound (Metrics.e2e, which BENCHMARK.json mirrors
   for the gated metrics); "unresolved" if A's own spread
   is wider than that bound and B does not beat every run of A; otherwise
   "within".  Exits 1 if anything is worse. *)

let runs path =
  match Fpc_util.Jsonin.parse_file path with
  | Error m -> failwith (path ^ ": " ^ m)
  | Ok j ->
    List.map
      (fun r ->
        let metrics =
          match Bench_file.field "metrics" r with
          | Some (Fpc_util.Jsonout.Obj fields) ->
            List.filter_map
              (fun (name, m) ->
                match Bench_file.field "value" m with
                | Some (Fpc_util.Jsonout.Float f) -> Some (name, f)
                | Some (Fpc_util.Jsonout.Int i) -> Some (name, float_of_int i)
                | _ -> None)
              fields
          | _ -> []
        in
        (Bench_file.string_field "workload" r, metrics))
      (Bench_file.list "results" j)

let values files ~workload ~metric =
  List.concat_map
    (fun f ->
      List.filter_map
        (fun (w, ms) -> if w = workload then List.assoc_opt metric ms else None)
        f)
    files

let verdict ~better ~bound a b =
  let ma = Stat.median a and mb = Stat.median b in
  let q1, q3 = Stat.quartiles a in
  let iqr = q3 -. q1 in
  let beats x y = match better with Metrics.Higher -> x > y | Metrics.Lower -> x < y in
  let pairs = min (List.length a) (List.length b) in
  let rec count_wins xs ys =
    match (xs, ys) with
    | x :: xs, y :: ys -> (if beats y x then 1 else 0) + count_wins xs ys
    | _ -> 0
  in
  let wins = count_wins a b in
  let beats_all = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
  let worse_by = match better with Metrics.Lower -> mb -. ma | Metrics.Higher -> ma -. mb in
  let scale = Float.abs ma in
  let spread =
    if scale > 0.0 then iqr /. scale else if iqr = 0.0 then 0.0 else Float.infinity
  in
  let v =
    if pairs > 0 && 10 * wins >= 9 * pairs && beats mb ma && Float.abs (mb -. ma) > iqr then
      "better"
    else if spread > bound && not beats_all then "unresolved"
    else if if scale = 0.0 then worse_by > 0.0 else worse_by /. scale > bound then "worse"
    else "within"
  in
  (v, ma, mb, spread, wins, pairs)

let main args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then begin
    prerr_endline "usage: main.exe compare A.json... -- B.json...";
    exit 2
  end;
  let a = List.map runs a_files and b = List.map runs b_files in
  let any_worse = ref false in
  Printf.printf "%-15s %-15s %12s %12s %8s %7s %6s  %s\n" "workload" "metric" "A median"
    "B median" "A spread" "wins" "bound" "verdict";
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (m : Metrics.spec) ->
          let va = values a ~workload:w.Workload.name ~metric:m.Metrics.name
          and vb = values b ~workload:w.Workload.name ~metric:m.Metrics.name in
          if va <> [] && vb <> [] then begin
            let bound = Option.value m.Metrics.bound ~default:0.0 in
            let v, ma, mb, spread, wins, pairs =
              verdict ~better:m.Metrics.better ~bound va vb
            in
            if v = "worse" then any_worse := true;
            Printf.printf "%-15s %-15s %12.4f %12.4f %7.1f%% %3d/%-3d %5.0f%%  %s\n"
              w.Workload.name m.Metrics.name ma mb (100.0 *. spread) wins pairs
              (100.0 *. bound) v
          end)
        Metrics.e2e)
    Workload.all;
  if !any_worse then exit 1
