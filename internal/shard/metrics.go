package shard

import "ccf/internal/obs"

// Metrics are the shard layer's instrumentation handles, embedded by
// value in every ShardedFilter so the write path increments preallocated
// atomics — never a name lookup, never an allocation. The handles are
// always on; internal/server names them in an obs.Registry for
// exposition.
type Metrics struct {
	// Grows counts policy-driven GrowShard level openings. Reactive
	// grows inside inserts are visible in Stats (per-ladder Grows), which
	// the server exposes as a gauge.
	Grows obs.Counter
}

// Metrics returns the filter's instrumentation handles for registration
// in an exposition registry. The pointer stays valid for the filter's
// lifetime.
func (s *ShardedFilter) Metrics() *Metrics { return &s.metrics }
