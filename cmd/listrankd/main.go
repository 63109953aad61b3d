// Command listrankd is the list-ranking network daemon: an HTTP
// (h2c-capable on Go ≥ 1.24) front over the serving layer
// (listrank.Server) speaking the compact binary frame protocol of
// internal/wire — no JSON on the hot path, request bodies decoded
// straight into pooled fleet-owned arenas, zero per-request array
// allocations warm.
//
// Usage:
//
//	listrankd [-addr 127.0.0.1:8347] [-addr-file path] [-procs 0]
//	          [-bins 4096,262144] [-queue 1024] [-maxbatch 64]
//	          [-reject] [-warm 1024,65536]
//	          [-max-elems 16777216] [-quota-rate 0] [-quota-burst 32]
//	          [-drain-timeout 30s]
//
// Endpoints:
//
//	POST /rank         rank request frame in, result frame out
//	POST /scan         scan request frame in, result frame out
//	GET  /metrics      Prometheus text format (fleet + daemon counters)
//	GET  /healthz      liveness
//	GET  /debug/pprof  the standard profiles
//
// Per-request deadlines arrive in the frame header or the
// X-Deadline-Ms header (tighter wins) and map onto the serving
// layer's Request.Deadline; the client connection's context rides
// along as Request.Ctx, so disconnects cancel queued or mid-run work.
// The X-Tenant header selects a per-tenant token bucket (-quota-rate,
// -quota-burst) checked before fleet admission. Responses carry an
// X-Outcome header (served / rejected / expired / poisoned / shed /
// quota / badframe) mirroring the fleet's failure domains — cmd/listrankc
// cross-checks its client-side tallies against /metrics through it.
//
// SIGTERM or SIGINT drains gracefully: stop accepting, finish
// in-flight requests (bounded by -drain-timeout), close the fleet,
// then exit 0 only if the accounting identity
// Submitted = Served + Rejected + Expired + Poisoned + Shed balanced
// and no goroutines leaked.
package main

import "os"

func main() { os.Exit(runServe(os.Args[1:])) }
