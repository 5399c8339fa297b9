//go:build race

package shard

// raceEnabled gates the zero-allocation assertions: sync.Pool
// deliberately drops items under the race detector, so alloc counts
// there are meaningless.
const raceEnabled = true
