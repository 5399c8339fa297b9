// Benchmarks for the serving-path batch APIs: sharded QueryBatch and
// InsertBatch versus a single-lock baseline, point operations on a
// one-shard filter. All variants report a comparable "keys/s" metric so
// the speedup from per-shard locking and batch grouping is visible
// directly.
package ccf_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"ccf"
	"ccf/internal/core"
	"ccf/internal/shard"
)

const (
	benchRows  = 1 << 16
	benchBatch = 1024
)

func benchKeys() ([]uint64, [][]uint64) {
	keys := make([]uint64, benchRows)
	attrs := make([][]uint64, benchRows)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 99
		attrs[i] = []uint64{uint64(i % 11)}
	}
	return keys, attrs
}

// newPointBaseline returns a one-shard filter holding keys: point
// operations on it all contend for one read-write lock.
func newPointBaseline(b *testing.B, capacity int, keys []uint64, attrs [][]uint64) *shard.ShardedFilter {
	b.Helper()
	s, err := shard.New(shard.Options{Params: core.Params{NumAttrs: 1, Capacity: capacity, Seed: 5}})
	if err != nil {
		b.Fatal(err)
	}
	for _, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkQueryThroughput compares concurrent read throughput: point
// queries through a one-shard filter's single RWMutex versus QueryBatch
// across 1, 4 and 16 shards.
func BenchmarkQueryThroughput(b *testing.B) {
	keys, attrs := benchKeys()
	pred := ccf.And(ccf.Eq(0, 3))

	b.Run("point", func(b *testing.B) {
		sf := newPointBaseline(b, benchRows*2, keys, attrs)
		var done atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				sf.Query(keys[i%benchRows], pred)
				i++
			}
			done.Add(int64(i))
		})
		b.ReportMetric(float64(done.Load())/b.Elapsed().Seconds(), "keys/s")
	})

	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sharded/%d", shards), func(b *testing.B) {
			s, err := shard.New(shard.Options{
				Shards: shards,
				Params: core.Params{NumAttrs: 1, Capacity: benchRows * 2, Seed: 5},
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, err := range s.InsertBatch(keys, attrs) {
				if err != nil {
					b.Fatal(err)
				}
			}
			var done atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				off := 0
				for pb.Next() {
					lo := off % (benchRows - benchBatch)
					s.QueryBatch(keys[lo:lo+benchBatch], pred)
					off += benchBatch
					done.Add(benchBatch)
				}
			})
			b.ReportMetric(float64(done.Load())/b.Elapsed().Seconds(), "keys/s")
		})
	}
}

// BenchmarkMixedThroughput measures a 90/10 read/write mix, where the
// single global lock hurts most: every point insert on the one-shard
// baseline stalls all readers, while a sharded insert blocks only 1/N of
// the keyspace.
func BenchmarkMixedThroughput(b *testing.B) {
	keys, attrs := benchKeys()
	pred := ccf.And(ccf.Eq(0, 3))

	b.Run("point", func(b *testing.B) {
		sf := newPointBaseline(b, benchRows*4, keys, attrs)
		var done atomic.Int64
		var wkey atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i%10 == 9 {
					k := wkey.Add(1)
					sf.Insert(k+1e12, []uint64{k % 11})
				} else {
					sf.Query(keys[i%benchRows], pred)
				}
				i++
			}
			done.Add(int64(i))
		})
		b.ReportMetric(float64(done.Load())/b.Elapsed().Seconds(), "keys/s")
	})

	for _, shards := range []int{4, 16} {
		b.Run(fmt.Sprintf("sharded/%d", shards), func(b *testing.B) {
			s, err := shard.New(shard.Options{
				Shards: shards,
				Params: core.Params{NumAttrs: 1, Capacity: benchRows * 4, Seed: 5},
			})
			if err != nil {
				b.Fatal(err)
			}
			s.InsertBatch(keys, attrs)
			var done atomic.Int64
			var wkey atomic.Uint64
			wbatchAttrs := make([][]uint64, benchBatch/10)
			for i := range wbatchAttrs {
				wbatchAttrs[i] = []uint64{uint64(i % 11)}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				off := 0
				for pb.Next() {
					if off%(10*benchBatch) >= 9*benchBatch {
						wkeys := make([]uint64, len(wbatchAttrs))
						base := wkey.Add(uint64(len(wkeys)))
						for i := range wkeys {
							wkeys[i] = 1e12 + base + uint64(i)
						}
						s.InsertBatch(wkeys, wbatchAttrs)
						done.Add(int64(len(wkeys)))
					} else {
						lo := off % (benchRows - benchBatch)
						s.QueryBatch(keys[lo:lo+benchBatch], pred)
						done.Add(benchBatch)
					}
					off += benchBatch
				}
			})
			b.ReportMetric(float64(done.Load())/b.Elapsed().Seconds(), "keys/s")
		})
	}
}

// BenchmarkInsertBatch measures grouped batch insertion across shard
// counts.
func BenchmarkInsertBatch(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			keys, attrs := benchKeys()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := shard.New(shard.Options{
					Shards: shards,
					Params: core.Params{NumAttrs: 1, Capacity: benchRows * 2, Seed: 5},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for lo := 0; lo+benchBatch <= benchRows; lo += benchBatch {
					s.InsertBatch(keys[lo:lo+benchBatch], attrs[lo:lo+benchBatch])
				}
			}
			b.ReportMetric(float64(benchRows), "keys/op")
		})
	}
}
