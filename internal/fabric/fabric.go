// Package fabric scales the simulation-campaign engine from one node to
// a fleet: a coordinator normalizes and content-addresses a submitted
// grid, resolves every job through a federated read-through cache tier
// (local cache → remote peer cache → simulate, with fill-on-miss), and
// shards the remaining misses across N worker nodes over HTTP.
//
// The whole design leans on the repo's bit-determinism contract: a
// JobSpec's result is a pure function of its content address, for any
// worker count on any node. That makes *every* result canonical — a
// remote peer's cache entry is as good as a local simulation, a result
// computed twice (work stealing, lease races) is byte-identical both
// times, and a worker returning a result for a key it was never leased
// is still accepted. Consequently no job is ever computed twice
// anywhere in the fleet once any node has it cached, and the fabric's
// only real task is routing misses.
//
// Lease protocol (one request carries thousands of jobs):
//
//	POST /v1/lease {"campaign": "...", "jobs": [JobSpec, ...]}
//	→ 200 application/x-ndjson, one line per completed job
//	  {"key": ..., "result": {...}, "cached": bool, "trace": base64}
//	  terminated by a trailer {"done": true, "simulated": n, ...}.
//
// The stream doubles as the liveness signal: the coordinator re-arms a
// lease-TTL watchdog on every line, so a worker that dies mid-batch
// (or hangs) is detected within one TTL and its unfinished jobs are
// re-queued. Transport errors retry with exponential backoff and
// jitter; a worker that keeps failing is abandoned and its jobs move
// to the survivors. Idle workers steal jobs from long-outstanding
// leases (stragglers), racing the original holder — first result wins.
//
// Federated cache endpoints served by every worker:
//
//	POST /v1/cache/lookup {"keys": [key, ...], "trace": [bool, ...]}
//	→ 200 application/x-ndjson, one lease line per hit
//	  {"key": ..., "result": {...}, "cached": true, "trace": base64}
//	  terminated by a trailer {"done": true, "cache_hits": n}.
//	GET /v1/cache/{key}        → 200 JobResult JSON | 404
//	GET /v1/cache/{key}/trace  → 200 trace CSV      | 404
//
// Before leasing anything the coordinator sends every key its own cache
// lacks to all peers at once, one lookup each, and reads each stream
// under the same per-line watchdog as a lease (RequestTimeout instead
// of the lease TTL). trace[i] asks for key i's trace as well: a hit
// without its trace, or with one that does not parse, is a miss. Keys
// must be content addresses (64 lowercase hex digits); anything else
// is a 400. The GET point lookups are for operators and scripts.
package fabric

import "hsas/internal/campaign"

// leaseRequest is the POST /v1/lease body: a batch of jobs to resolve
// (worker-local cache first, then simulate). Campaign labels the
// worker's lake rows when it keeps a lake of its own.
type leaseRequest struct {
	Campaign string             `json:"campaign,omitempty"`
	Jobs     []campaign.JobSpec `json:"jobs"`
}

// lookupRequest is the POST /v1/cache/lookup body: content addresses
// to read from the worker's cache, with Trace[i] set when key i's job
// records a trace (its hit must then carry the trace too).
type lookupRequest struct {
	Keys  []string `json:"keys"`
	Trace []bool   `json:"trace"`
}

// leaseLine is one NDJSON line of a lease response stream: either a
// completed job (Key + Result, Trace for record_trace jobs, Cached when
// the worker's local cache had it), a failed job (Key + Error), or the
// terminating trailer (Done with the batch totals; Error set when the
// worker's engine failed).
type leaseLine struct {
	Key       string              `json:"key,omitempty"`
	Result    *campaign.JobResult `json:"result,omitempty"`
	Trace     []byte              `json:"trace,omitempty"` // base64 on the wire
	Cached    bool                `json:"cached,omitempty"`
	Error     string              `json:"error,omitempty"`
	Done      bool                `json:"done,omitempty"`
	Simulated int                 `json:"simulated,omitempty"`
	CacheHits int                 `json:"cache_hits,omitempty"`
}
