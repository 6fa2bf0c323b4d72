type degraded_source =
  | Stale_subset of Braid_remote.Rdi.failure
  | Unavailable of Braid_remote.Rdi.failure

type step =
  | Exact_hit of { element : string }
  | Use_element of { element : string; covered_atoms : int list }
  | Ship_subquery of { sql : string; cached_as : string option }
  | Remote_fetch of { sql : string; cached_as : string option }
  | Local_eval of { touched : int }
  | Lazy_answer
  | Generalized of { spec : string; element : string }
  | Prefetch of { spec : string; element : string }
  | Index_built of { element : string; columns : int list }
  | Degraded_serve of { sql : string; source : degraded_source }
  | Stale_elements of { touched : int }

type t = step list

type provenance = Fresh | Degraded

let provenance_to_string = function Fresh -> "fresh" | Degraded -> "degraded"

let pp_cached ppf = function
  | Some id -> Format.fprintf ppf " -> cached as %s" id
  | None -> ()

let pp_step ppf = function
  | Exact_hit { element } -> Format.fprintf ppf "exact hit on %s" element
  | Use_element { element; covered_atoms } ->
    Format.fprintf ppf "use %s (covers atoms %a)" element
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      covered_atoms
  | Ship_subquery { sql; cached_as } ->
    Format.fprintf ppf "ship [%s]%a" sql pp_cached cached_as
  | Remote_fetch { sql; cached_as } ->
    Format.fprintf ppf "fetch [%s]%a" sql pp_cached cached_as
  | Local_eval { touched } -> Format.fprintf ppf "local eval (%d tuples touched)" touched
  | Lazy_answer -> Format.pp_print_string ppf "lazy generator"
  | Generalized { spec; element } ->
    Format.fprintf ppf "generalized %s -> %s" spec element
  | Prefetch { spec; element } -> Format.fprintf ppf "prefetch %s -> %s" spec element
  | Index_built { element; columns } ->
    Format.fprintf ppf "index %s on (%a)" element
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      columns
  | Degraded_serve { sql; source } ->
    let cause, failure =
      match source with
      | Stale_subset f -> ("stale subset", f)
      | Unavailable f -> ("unavailable", f)
    in
    Format.fprintf ppf "degraded [%s] (%s: %s)" sql cause
      (Braid_remote.Rdi.failure_to_string failure)
  | Stale_elements { touched } ->
    Format.fprintf ppf "read %d stale cache tuples" touched

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,") pp_step)
    t

let to_string t = Format.asprintf "%a" pp t

let used_remote t =
  List.exists
    (function
      | Ship_subquery _ | Remote_fetch _ -> true
      | Exact_hit _ | Use_element _ | Local_eval _ | Lazy_answer | Generalized _ | Prefetch _
      | Index_built _ | Degraded_serve _ | Stale_elements _ -> false)
    t

let fully_from_cache t = not (used_remote t)

let is_degraded t =
  List.exists
    (function
      | Degraded_serve _ | Stale_elements _ -> true
      | Exact_hit _ | Use_element _ | Ship_subquery _ | Remote_fetch _ | Local_eval _
      | Lazy_answer | Generalized _ | Prefetch _ | Index_built _ -> false)
    t

let provenance t = if is_degraded t then Degraded else Fresh
