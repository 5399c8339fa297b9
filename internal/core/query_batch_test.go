package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// The batch pipeline must be answer-identical to the scalar probes: it is
// the same algorithm with its memory accesses rescheduled. These tests
// differential-check QueryBatchInto and its indexed form against Query,
// and its key-only form (a nil predicate) against QueryKey, over every
// variant, at b = 4 and at the b = 6 the chained default uses, with
// duplicate-heavy rows so chains and conversions actually occur.

func batchTestFilter(t *testing.T, v Variant, bucketSize int) (*Filter, []uint64) {
	t.Helper()
	return loadBatchFilter(t, Params{Variant: v, BucketSize: bucketSize, BloomBits: 24})
}

// loadBatchFilter builds a two-attribute filter under p and loads it
// with the duplicate-heavy rows.
func loadBatchFilter(t *testing.T, p Params) (*Filter, []uint64) {
	t.Helper()
	p.NumAttrs, p.Capacity, p.Seed = 2, 1<<12, 77
	f := mustFilter(t, p)
	rng := rand.New(rand.NewSource(101))
	keys := make([]uint64, 1<<11)
	for i := range keys {
		// Heavy duplication: ~1/4 of inserts reuse an earlier key with a
		// different attribute vector, driving chaining / conversion.
		if i > 0 && rng.Intn(4) == 0 {
			keys[i] = keys[rng.Intn(i)]
		} else {
			keys[i] = rng.Uint64()
		}
		// ErrFull/ErrChainLimit are expected under this skew for Plain
		// (Figure 4); the differential check only needs a loaded filter.
		if err := f.Insert(keys[i], []uint64{uint64(i % 9), uint64(i % 5)}); err == ErrAttrCount {
			t.Fatalf("%s insert %d: %v", p.Variant, i, err)
		}
	}
	return f, keys
}

// withRuns repeats each key of keys in a run of 1, 2, 3, 4, 1, 2, 3, ...
// positions, so 9 of every 16 positions repeat their predecessor: the
// shape of a fact table that stores each join key's rows together.
func withRuns(keys []uint64) []uint64 {
	out := make([]uint64, 0, len(keys)*16/7+4)
	for i, k := range keys {
		for range 1 + i%7%4 {
			out = append(out, k)
		}
	}
	return out
}

// batchProbeKeys returns 4096 probe keys in runs of 1 to 8 equal keys,
// alternately a present key and one almost surely absent, so the tile
// pipeline folds runs, including some across a tile boundary.
func batchProbeKeys(keys []uint64) []uint64 {
	rng := rand.New(rand.NewSource(202))
	probe := make([]uint64, 0, 4096)
	for i := 0; len(probe) < cap(probe); i++ {
		k := rng.Uint64() // almost surely absent
		if i%2 == 0 {
			k = keys[rng.Intn(len(keys))] // present
		}
		for n := min(1+rng.Intn(8), cap(probe)-len(probe)); n > 0; n-- {
			probe = append(probe, k)
		}
	}
	return probe
}

func TestQueryBatchMatchesScalar(t *testing.T) {
	preds := []Predicate{
		nil,
		And(Eq(0, 3)),
		And(Eq(0, 3), Eq(1, 2)),
		And(In(1, 0, 1, 2, 3, 4)),
		And(Eq(0, 1<<40)), // above small-value range: fingerprinted
	}
	check := func(name string, f *Filter, keys []uint64) {
		t.Helper()
		probe := batchProbeKeys(keys)
		for pi, pred := range preds {
			want := make([]bool, len(probe))
			for i, k := range probe {
				want[i] = f.Query(k, pred)
			}
			got := f.QueryBatchInto(nil, probe, pred)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s pred#%d key[%d]: batch=%v scalar=%v",
						name, pi, i, got[i], want[i])
				}
			}
			// Recycled-buffer path must behave identically.
			got = f.QueryBatchInto(got[:0], probe, pred)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s pred#%d key[%d] (recycled): batch=%v scalar=%v",
						name, pi, i, got[i], want[i])
				}
			}
		}
	}
	for _, bsz := range []int{4, 6} {
		for _, v := range allVariants() {
			f, keys := batchTestFilter(t, v, bsz)
			check(fmt.Sprintf("%s b=%d", v, bsz), f, keys)
		}
		// The compiled predicate fingerprints values as the filter does:
		// a compressed filter folds its wide fingerprints (§9), and
		// DisableSmallValueOpt hashes even small values.
		wide, keys := loadBatchFilter(t, Params{Variant: VariantChained, BucketSize: bsz, AttrBits: 16})
		comp, err := wide.CompressAttributes(5)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("compressed b=%d", bsz), comp, keys)
		f, keys := loadBatchFilter(t, Params{Variant: VariantChained, BucketSize: bsz, AttrBits: 4,
			DisableSmallValueOpt: true})
		check(fmt.Sprintf("no-small-value b=%d", bsz), f, keys)
	}
}

func TestQueryBatchIdxScatters(t *testing.T) {
	f, keys := batchTestFilter(t, VariantChained, 4)
	probe := batchProbeKeys(keys)
	pred := And(Eq(0, 3))
	// A shard-style permutation: probe every even index, in reverse.
	var idxs []int32
	for i := len(probe) - 2; i >= 0; i -= 2 {
		idxs = append(idxs, int32(i))
	}
	out := make([]bool, len(probe))
	for i := range out {
		out[i] = true // sentinel at the odd (unprobed) slots
	}
	f.QueryBatchIdx(out, probe, idxs, pred)
	for _, i := range idxs {
		if want := f.Query(probe[i], pred); out[i] != want {
			t.Fatalf("idx %d: batch=%v scalar=%v", i, out[i], want)
		}
	}
	for i := 1; i < len(probe); i += 2 {
		if !out[i] {
			t.Fatalf("idx %d written but not in idxs", i)
		}
	}
}

// TestContainsBatchMatchesQueryKey: the key-only batch probe, a nil
// predicate through QueryBatchInto, answers what QueryKey answers.
func TestContainsBatchMatchesQueryKey(t *testing.T) {
	for _, v := range allVariants() {
		for _, bsz := range []int{4, 6} {
			f, keys := batchTestFilter(t, v, bsz)
			probe := batchProbeKeys(keys)
			got := f.QueryBatchInto(nil, probe, nil)
			for i, k := range probe {
				if want := f.QueryKey(k); got[i] != want {
					t.Fatalf("%s b=%d key[%d]: batch=%v QueryKey=%v", v, bsz, i, got[i], want)
				}
			}
		}
	}
}

func TestQueryBatchInvalidPredicateAllTrue(t *testing.T) {
	f, keys := batchTestFilter(t, VariantPlain, 4)
	out := f.QueryBatchInto(nil, keys[:100], And(Eq(99, 1)))
	for i, ok := range out {
		if !ok {
			t.Fatalf("key[%d]: invalid predicate must be conservatively true", i)
		}
	}
}

func TestQueryBatchEmptyAndSizing(t *testing.T) {
	f, _ := batchTestFilter(t, VariantPlain, 4)
	if out := f.QueryBatchInto(nil, nil, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
	big := make([]bool, 0, 8192)
	keys := []uint64{1, 2, 3}
	out := f.QueryBatchInto(big, keys, nil)
	if len(out) != 3 || cap(out) != 8192 {
		t.Fatalf("dst reuse: len=%d cap=%d, want 3/8192", len(out), cap(out))
	}
}

// TestBatchProbeDoesNotPinPredicate: the pooled probe scratch must not
// keep the caller's predicate live once the batch returns, or one large
// in-list stays in memory until that P probes again or two GCs pass.
// Under -race the pool drops items at random, so there it only has to
// pass.
func TestBatchProbeDoesNotPinPredicate(t *testing.T) {
	f := mustFilter(t, Params{Variant: VariantChained, NumAttrs: 2, Capacity: 1 << 12, Seed: 3})
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i)
		if err := f.Insert(keys[i], []uint64{uint64(i % 9), 1}); err != nil {
			t.Fatal(err)
		}
	}
	freed := make(chan struct{})
	func() {
		vals := make([]uint64, 1<<16)
		for i := range vals {
			vals[i] = uint64(i)
		}
		runtime.SetFinalizer(&vals[0], func(*uint64) { close(freed) })
		f.QueryBatchInto(nil, keys, And(In(0, vals...)))
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the predicate's values are still reachable after a GC")
	}
}
