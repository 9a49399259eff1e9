type t = {
  page_size : int;
  disk_seek : float;
  disk_rate : float;
  scp_io_rate : float;
  scp_crypto_rate : float;
  bandwidth : float;
  rtt : float;
  scp_memory : int;
  pir_memory_factor : int;
  pir_calibration : float;
  client_decode_rate : float;
}

let ibm4764 =
  { page_size = 4096;
    disk_seek = 0.011;
    disk_rate = 125.0e6;
    scp_io_rate = 80.0e6;
    scp_crypto_rate = 10.0e6;
    bandwidth = 48.0e3;
    rtt = 0.7;
    scp_memory = 32 * 1024 * 1024;
    pir_memory_factor = 10;
    pir_calibration = 0.26;
    client_decode_rate = 2.0e5 }

let page_op_seconds t =
  let p = float_of_int t.page_size in
  t.disk_seek +. (p /. t.disk_rate) +. (p /. t.scp_io_rate)
  +. (2.0 *. p /. t.scp_crypto_rate)

let log2 x = log x /. log 2.0

let pir_fetch_seconds t ~file_pages =
  let n = float_of_int (max 2 file_pages) in
  let ops = Float.max 1.0 (t.pir_calibration *. (log2 n ** 2.0)) in
  ops *. page_op_seconds t

(* Pyramid depth for a file: the smallest L with cache_capacity * 4^L >=
   file_pages.  This is the one place the layout formula lives —
   Pyramid_store.create calls it to size the hierarchy, and the
   simulated batch cost below charges marginal probes against it, so the
   executed and modeled per-probe touch counts coincide by
   construction. *)
let pyramid_levels ~cache_capacity ~file_pages =
  if cache_capacity < 1 then invalid_arg "Cost_model.pyramid_levels: cache_capacity >= 1";
  if file_pages < 1 then invalid_arg "Cost_model.pyramid_levels: file_pages >= 1";
  let rec depth_for l =
    if cache_capacity * (1 lsl (2 * l)) >= file_pages then l else depth_for (l + 1)
  in
  depth_for 1

let pyramid_level ~cache_capacity ~file_pages ~depth =
  let deepest = pyramid_levels ~cache_capacity ~file_pages in
  if depth < 1 || depth > deepest then invalid_arg "Cost_model.pyramid_level: depth out of range";
  let c = cache_capacity in
  (* the deepest level must absorb the initial n pages on top of the
     usual merge traffic; a level's dummies cover the c*4^(j-1) queries
     between its rebuilds, plus c of slack *)
  let merge = c * (1 lsl (2 * depth)) in
  let cap = if depth = deepest then file_pages + merge else merge in
  (cap, (c * (1 lsl (2 * (depth - 1)))) + c)

(* The physical basis of the batch amortization: a merged pass serves
   each request beyond the first with exactly one extra slot touch per
   hierarchy level, so a width-k batch executes (k-1) * levels marginal
   page touches on top of the first member's full pass.  test_batch.ml
   asserts the oblivious stores execute exactly this many. *)
let batch_probe_touches ~levels ~batch =
  if levels < 0 then invalid_arg "Cost_model.batch_probe_touches: levels >= 0";
  if batch < 1 then invalid_arg "Cost_model.batch_probe_touches: batch >= 1";
  (batch - 1) * levels

(* Same-round requests served in one pass over the oblivious store: the
   calibrated log²N term pays for the pass itself (level scans plus the
   amortized reshuffle) once, and the marginal cost is derived from the
   merged pass's executed page-touch count ({!batch_probe_touches}):
   each request beyond the first adds [levels] slot touches — one probe
   per hierarchy level — capped at the full pass (a batch can always
   fall back to independent passes, so no request may cost more than its
   own).  With [batch = 1] this reduces exactly to
   {!pir_fetch_seconds}, which keeps single-query costs (and every
   existing benchmark) unchanged. *)
let pir_batch_fetch_seconds t ~file_pages ~levels ~batch =
  let n = float_of_int (max 2 file_pages) in
  let pass = Float.max 1.0 (t.pir_calibration *. (log2 n ** 2.0)) in
  let marginal = Float.min pass (Float.max 1.0 (float_of_int levels)) in
  let extra = float_of_int (max 0 (batch - 1)) in
  (pass +. (extra *. marginal)) *. page_op_seconds t

(* Serving-frontend latencies.  The multi-tenant scheduler keeps a
   virtual clock in model seconds; a query's served latency splits into
   the time it sat queued (dispatch - arrival, both public events on
   that clock) and the response time of the batch that served it.  Both
   are functions of public quantities only — arrival timestamps, batch
   widths and the layout constants above — so the scheduler's decisions
   never have anything secret to read. *)

(* Client-side decode of a batch's delivered pages (decrypt, CRC,
   record parse) on the handheld's CPU.  The byte count priced here must
   be plan-fixed — slot count x page size, never the delivered real
   payloads — so the decode schedule the pipelined executor plans
   against stays a public quantity. *)
let decode_seconds t ~bytes =
  if bytes < 0 then invalid_arg "Cost_model.decode_seconds: bytes >= 0";
  float_of_int bytes /. t.client_decode_rate

(* The steady-state response estimate of a depth-d pipelined stream of
   identical batches: completions are spaced max(fetch, (fetch +
   decode)/d) apart — the serial SCP bounds the spacing below by the
   fetch pass, and a window of d in-flight batches divides the full
   synchronous round (fetch + decode) by d.  depth = 1 reduces exactly
   to the synchronous sum. *)
let pipelined_response_seconds ~fetch ~decode ~depth =
  if depth < 1 then invalid_arg "Cost_model.pipelined_response_seconds: depth >= 1";
  if fetch < 0.0 || decode < 0.0 then
    invalid_arg "Cost_model.pipelined_response_seconds: negative phase cost";
  Float.max fetch ((fetch +. decode) /. float_of_int depth)

let queueing_delay_seconds ~enqueued ~dispatched =
  if dispatched < enqueued then
    invalid_arg "Cost_model.queueing_delay_seconds: dispatched before enqueued";
  dispatched -. enqueued

(* The width-w service estimate the scheduler plans against: the batched
   pass cost with the hierarchy depth derived from the same layout
   formula the store uses, so the estimate and the executed charge agree
   by construction. *)
let batch_response_seconds t ~cache_capacity ~file_pages ~batch =
  pir_batch_fetch_seconds t ~file_pages
    ~levels:(pyramid_levels ~cache_capacity ~file_pages)
    ~batch

(* Recovery-path latencies.  All are deterministic functions of public
   quantities (attempt ordinals and Table 2 link constants), so charging
   them cannot leak: the oblivious-retry argument of DESIGN.md extends
   unchanged. *)

let retry_backoff_seconds ~base ~attempt =
  if attempt < 1 then invalid_arg "Cost_model.retry_backoff_seconds: attempt >= 1";
  base *. float_of_int (1 lsl (attempt - 1))

let latency_spike_seconds t = 10.0 *. t.rtt
let timeout_seconds t = 25.0 *. t.rtt

let failover_seconds t ~attempt =
  (* tear down the dead session, re-handshake with the next replica, and
     back off exponentially in the number of replicas already abandoned *)
  t.rtt +. retry_backoff_seconds ~base:t.rtt ~attempt

let plain_fetch_seconds t =
  t.disk_seek +. (float_of_int t.page_size /. t.disk_rate)

let transfer_seconds t ~bytes = float_of_int bytes /. t.bandwidth

let max_file_bytes t =
  (* memory(N) = c * sqrt(N) * page_size <= scp_memory *)
  let c = float_of_int t.pir_memory_factor in
  let max_pages = (float_of_int t.scp_memory /. (c *. float_of_int t.page_size)) ** 2.0 in
  int_of_float max_pages * t.page_size

let supports_file t ~bytes = bytes <= max_file_bytes t

let scp_memory_needed t ~file_pages =
  let pages = ceil (float_of_int t.pir_memory_factor *. sqrt (float_of_int file_pages)) in
  int_of_float pages * t.page_size

let with_max_file t ~bytes =
  if bytes <= 0 then invalid_arg "Cost_model.with_max_file: bytes must be positive";
  let pages = float_of_int bytes /. float_of_int t.page_size in
  let memory =
    float_of_int t.pir_memory_factor *. sqrt pages *. float_of_int t.page_size
  in
  { t with scp_memory = int_of_float (ceil memory) }
