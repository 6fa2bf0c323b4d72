(* The victims, and the bytes in use once they are gone. *)
let plan model ~needed_bytes ?(protect = fun _ -> false) () =
  let capacity = Cache_model.capacity_bytes model in
  let used = Cache_model.used_bytes model in
  let to_free = used + needed_bytes - capacity in
  if to_free <= 0 then ([], used)
  else begin
    (* Protected elements are exempt unconditionally — they must never
       reach the pinned fallback. Pinned elements are only deferred. *)
    let evictable =
      List.filter (fun e -> not (protect e)) (Cache_model.elements model)
    in
    let unpinned, pinned =
      List.partition (fun e -> not e.Element.pinned) evictable
    in
    let by_lru l =
      List.sort (fun a b -> Stdlib.compare a.Element.last_used b.Element.last_used) l
    in
    (* Evict unpinned LRU-first; fall back to pinned only if still short. *)
    let rec take freed acc = function
      | [] -> (freed, List.rev acc)
      | e :: rest ->
        if freed >= to_free then (freed, List.rev acc)
        else take (freed + Element.bytes_estimate e) (e :: acc) rest
    in
    let freed, chosen = take 0 [] (by_lru unpinned) in
    let chosen = List.map (fun e -> (e, false)) chosen in
    if freed >= to_free then (chosen, used - freed)
    else
      let freed, more = take freed [] (by_lru pinned) in
      (chosen @ List.map (fun e -> (e, true)) more, used - freed)
  end

let victims model ~needed_bytes ?protect () = fst (plan model ~needed_bytes ?protect ())

let evict model ~needed_bytes ?protect () =
  let vs, used = plan model ~needed_bytes ?protect () in
  List.iter (fun (e, _) -> Cache_model.remove model e.Element.id) vs;
  (List.map (fun (e, pinned_fallback) -> (e.Element.id, pinned_fallback)) vs, used)
