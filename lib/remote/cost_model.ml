type t = {
  request_overhead_ms : float;
  server_scan_ms : float;
  transfer_tuple_ms : float;
  cache_tuple_ms : float;
  ie_resolution_ms : float;
  hash_build_tuple_ms : float;
  probe_tuple_ms : float;
  sort_tuple_ms : float;
  inlj_probe_ms : float;
  filter_value_ms : float;
}

let default =
  {
    request_overhead_ms = 50.0;
    server_scan_ms = 0.05;
    transfer_tuple_ms = 0.5;
    cache_tuple_ms = 0.01;
    ie_resolution_ms = 0.005;
    hash_build_tuple_ms = 0.012;
    probe_tuple_ms = 0.004;
    sort_tuple_ms = 0.02;
    inlj_probe_ms = 0.006;
    filter_value_ms = 0.05;
  }

let local_only =
  {
    request_overhead_ms = 0.0;
    server_scan_ms = 0.0;
    transfer_tuple_ms = 0.0;
    cache_tuple_ms = 0.0;
    ie_resolution_ms = 0.0;
    hash_build_tuple_ms = 0.0;
    probe_tuple_ms = 0.0;
    sort_tuple_ms = 0.0;
    inlj_probe_ms = 0.0;
    filter_value_ms = 0.0;
  }

let remote_query_cost m ~scanned ~returned =
  m.request_overhead_ms
  +. (m.server_scan_ms *. float_of_int scanned)
  +. (m.transfer_tuple_ms *. float_of_int returned)
