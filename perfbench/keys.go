package main

import (
	"sync"
	"time"
)

// mix64 is the splitmix64 finalizer, a bijection on uint64: distinct
// row indexes give distinct keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// absentBase is the first row index never inserted: keys drawn from
// indexes at or above it are absent from every filter.
const absentBase = 1 << 40

// keyspace maps row indexes to keys and attributes for one seed.
type keyspace struct{ salt uint64 }

func newKeyspace(seed int64) keyspace {
	return keyspace{salt: mix64(uint64(seed) + 0x9e3779b97f4a7c15)}
}

func (k keyspace) key(i uint64) uint64 { return mix64(i ^ k.salt) }

// attr returns attribute a of row i, in [0, card).
func (k keyspace) attr(i uint64, a int, card uint64) uint64 {
	return mix64(i^k.salt^(uint64(a+1)<<56)) % card
}

// rows fills keys and row-major attrs for indexes [lo, hi).
func (k keyspace) rows(lo, hi uint64, cards []uint64) (keys, attrs []uint64) {
	keys = make([]uint64, 0, hi-lo)
	attrs = make([]uint64, 0, int(hi-lo)*len(cards))
	for i := lo; i < hi; i++ {
		keys = append(keys, k.key(i))
		for a, c := range cards {
			attrs = append(attrs, k.attr(i, a, c))
		}
	}
	return keys, attrs
}

// growthWatch samples the daemon's grow gauge while a phase runs. A fold
// swaps in a right-sized filter and resets the gauge, so grows are
// summed across resets.
type growthWatch struct {
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	grows float64
}

func watchGrowth(d *daemon, every time.Duration) *growthWatch {
	g := &growthWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(every)
		defer t.Stop()
		last := 0.0
		sample := func() {
			sc, err := d.scrape()
			if err != nil {
				return
			}
			cur := sc.sum("ccfd_ladder_grows")
			g.mu.Lock()
			if cur >= last {
				g.grows += cur - last
			} else {
				g.grows += cur
			}
			last = cur
			g.mu.Unlock()
		}
		for {
			select {
			case <-g.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return g
}

// finish stops the sampler and returns the grows seen.
func (g *growthWatch) finish() float64 {
	close(g.stop)
	<-g.done
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.grows
}
