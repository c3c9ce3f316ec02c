(* BENCHMARK.json at the root of the checkout: the workloads and metrics
   a change is judged by.  The smoke run checks that the file and the
   benchmark's own tables agree: the file names some of the workloads (the
   steadiest, so that each gets a long run) and exactly the gated
   metrics. *)

open Fpc_util.Jsonout

type t = { workloads : string list; e2e : Metrics.spec list; per_layer : Metrics.spec list }

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let string_field name j = match field name j with Some (String s) -> s | _ -> ""

let spec j =
  {
    Metrics.name = string_field "name" j;
    unit_ = string_field "unit" j;
    better = (if string_field "better" j = "higher" then Metrics.Higher else Metrics.Lower);
    bound =
      (match field "bound" j with
      | Some (Float f) -> Some f
      | Some (Int i) -> Some (float_of_int i)
      | _ -> None);
    gated = true;
    note = "";
  }

let list name j = match field name j with Some (List l) -> l | _ -> []

let load ?(path = "BENCHMARK.json") () =
  match Fpc_util.Jsonin.parse_file path with
  | Error m -> failwith (path ^ ": " ^ m)
  | Ok j ->
    {
      workloads = List.map (string_field "name") (list "workloads" j);
      e2e = List.map spec (list "end_to_end" j);
      per_layer = List.map spec (list "per_layer" j);
    }

(* Where the file and the benchmark's own tables differ. *)
let disagreements t =
  let diff what (mine : Metrics.spec list) (theirs : Metrics.spec list) =
    List.filter_map
      (fun (m : Metrics.spec) ->
        let same (s : Metrics.spec) = s.Metrics.name = m.Metrics.name in
        match List.find_opt same theirs with
        | None -> Some (Printf.sprintf "%s metric %s is not listed" what m.Metrics.name)
        | Some s ->
          if s.Metrics.unit_ <> m.Metrics.unit_ || s.Metrics.better <> m.Metrics.better
             || s.Metrics.bound <> m.Metrics.bound
          then Some (Printf.sprintf "%s metric %s differs" what m.Metrics.name)
          else None)
      mine
    @ List.filter_map
        (fun (s : Metrics.spec) ->
          let same (m : Metrics.spec) = m.Metrics.name = s.Metrics.name in
          if List.exists same mine then None
          else Some (Printf.sprintf "%s metric %s is unknown" what s.Metrics.name))
        theirs
  in
  let names = List.map (fun w -> w.Workload.name) Workload.all in
  List.filter_map
    (fun name ->
      if List.mem name names then None else Some ("workload " ^ name ^ " is unknown"))
    t.workloads
  @ diff "end-to-end" (Metrics.gated Metrics.e2e) t.e2e
  @ diff "per-layer" (Metrics.gated Metrics.per_layer) t.per_layer
