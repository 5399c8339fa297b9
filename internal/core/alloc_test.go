package core

import (
	"slices"
	"testing"

	"ccf/internal/simd"
)

// These tests pin the packed engine's allocation discipline: steady-state
// probes and inserts must not allocate. They are the machine-checked form
// of the "allocation-free probe/insert paths" contract — a regression
// here shows up as a test failure, not a slow drift in benchmark numbers.

func loadedFilter(t testing.TB, v Variant) *Filter {
	t.Helper()
	return loadedFilterBits(t, v, 0)
}

// loadedFilterBits is loadedFilter with AttrBits set (0 = the default).
func loadedFilterBits(t testing.TB, v Variant, attrBits int) *Filter {
	t.Helper()
	f, err := New(Params{Variant: v, NumAttrs: 2, Capacity: 1 << 14, BloomBits: 24,
		AttrBits: attrBits, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1<<13; k++ {
		if err := f.Insert(k, []uint64{k % 16, k % 7}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// wideInList, probed on an AttrBits-16 filter, needs the largest compiled
// predicate scratch: an 8 KiB bitmap per attribute plus the intersection
// scratch its repeated attribute uses, with in-lists mixing exact values
// and hashed ones above 2^16.
var wideInList = And(In(0, 3, 5, 9, 1<<40), In(1, 2, 6, 70000), In(0, 3, 9, 1<<40))

func TestQuerySteadyStateZeroAlloc(t *testing.T) {
	for _, v := range allVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := loadedFilter(t, v)
			pred := And(Eq(0, 3), Eq(1, 2))
			var k uint64
			if n := testing.AllocsPerRun(500, func() {
				f.Query(k, pred)
				f.Query(k, nil)
				f.QueryKey(k)
				k++
			}); n != 0 {
				t.Errorf("%s: Query allocates %.2f allocs/op, want 0", v, n)
			}
		})
	}
}

func TestInsertSteadyStateZeroAlloc(t *testing.T) {
	// The vector variants must insert without allocating: the kick-chain
	// carrier, staging vectors and chain-run cache are per-filter scratch.
	// (VariantBloom is excluded: a fresh key necessarily allocates its
	// per-entry sketch.) Mixed is driven with unique keys so no conversion
	// sketch is built. ChainedRuns gives each key 16 rows in a row with
	// distinct vectors, so every insert after a key's first resumes its
	// chain walk across six pairs.
	for _, tc := range []struct {
		name    string
		v       Variant
		runRows uint64
	}{
		{"Plain", VariantPlain, 1},
		{"Chained", VariantChained, 1},
		{"ChainedRuns", VariantChained, 16},
		{"Mixed", VariantMixed, 1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := mustFilter(t, Params{Variant: tc.v, NumAttrs: 2, Capacity: 1 << 15, Seed: 9})
			attrs := []uint64{0, 0}
			i := uint64(0)
			insert := func() {
				k := i / tc.runRows
				attrs[0], attrs[1] = k%16+i%tc.runRows*16, k%7
				if err := f.Insert(k, attrs); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for n := 0; n < 1000; n++ { // warm the kick-path and run scratch
				insert()
			}
			if n := testing.AllocsPerRun(1000, insert); n != 0 {
				t.Errorf("%s: Insert allocates %.2f allocs/op, want 0", tc.name, n)
			}
		})
	}
}

func TestQueryBatchSteadyStateZeroAlloc(t *testing.T) {
	// The batch entry points draw their tile scratch from a pool and write
	// into the caller's recycled result buffer: in steady state a batched
	// probe of any variant allocates nothing.
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	for _, v := range allVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := loadedFilter(t, v)
			pred := And(Eq(0, 3), Eq(1, 2))
			keys := make([]uint64, 1024)
			for i := range keys {
				keys[i] = uint64(i) * 31
			}
			dst := make([]bool, 0, len(keys))
			dst = f.QueryBatchInto(dst, keys, pred) // warm the tile-scratch pool
			if n := testing.AllocsPerRun(100, func() {
				dst = f.QueryBatchInto(dst[:0], keys, pred)
			}); n != 0 {
				t.Errorf("%s: QueryBatchInto allocates %.2f allocs/op, want 0", v, n)
			}
			wide := loadedFilterBits(t, v, 16)
			dst = wide.QueryBatchInto(dst[:0], keys, wideInList)
			if n := testing.AllocsPerRun(100, func() {
				dst = wide.QueryBatchInto(dst[:0], keys, wideInList)
			}); n != 0 {
				t.Errorf("%s: AttrBits-16 in-list QueryBatchInto allocates %.2f allocs/op, want 0", v, n)
			}
			if n := testing.AllocsPerRun(100, func() {
				dst = f.QueryBatchInto(dst[:0], keys, nil)
			}); n != 0 {
				t.Errorf("%s: key-only QueryBatchInto allocates %.2f allocs/op, want 0", v, n)
			}
		})
	}
}

// TestCompiledPredScratchFollowsPredicate pins the compile scratch to the
// predicate, not to the filter: on a filter with many attributes at
// AttrBits 16, a key-only probe compiles nothing, one condition costs one
// bitmap plus the intersection scratch, a predicate over more attributes
// than maxCompiledWords allows matches raw, and a recompile leaves no bit
// of the previous predicate behind. Every answer equals the scalar probe,
// and steady-state probes allocate nothing.
func TestCompiledPredScratchFollowsPredicate(t *testing.T) {
	const nattr, nw = 512, 1 << 16 / 64
	f, err := New(Params{Variant: VariantChained, NumAttrs: nattr, Capacity: 1 << 10,
		AttrBits: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]uint64, nattr)
	keys := make([]uint64, 0, 1024)
	for k := uint64(0); k < 512; k++ {
		for j := range row {
			row[j] = (k + uint64(j)) % 5
		}
		row[300] = k % 3 << 40 // hashed, not stored exactly
		if err := f.Insert(k, row); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k, k+1<<20)
	}
	every := make(Predicate, nattr)
	for j := range every {
		every[j] = In(j, 0, uint64(j)%5)
	}
	one := And(Eq(300, 1<<40))
	repeated := And(In(7, 1, 2, 3), In(300, 0, 1<<40), In(7, 2, 3, 4))
	var cp compiledPred
	cp.compile(f, nil)
	if len(cp.bits) != 0 || cp.raw {
		t.Fatalf("key-only compile: %d words, raw=%v; want 0 words, bitmaps", len(cp.bits), cp.raw)
	}
	cp.compile(f, one)
	if len(cp.bits) != 2*nw || cp.raw {
		t.Fatalf("one-condition compile: %d words, raw=%v; want %d, bitmaps", len(cp.bits), cp.raw, 2*nw)
	}
	cp.compile(f, every)
	if len(cp.bits) > maxCompiledWords || !cp.raw {
		t.Fatalf("%d-attribute compile: %d words, raw=%v; want <= %d, raw",
			nattr, len(cp.bits), cp.raw, maxCompiledWords)
	}
	for _, p := range []Predicate{repeated, one, every, nil, repeated} {
		cp.compile(f, p)
		var fresh compiledPred
		fresh.compile(f, p)
		used := len(fresh.bits)
		if !slices.Equal(cp.bits[:used], fresh.bits) || slices.ContainsFunc(cp.bits[used:], func(w uint64) bool { return w != 0 }) {
			t.Fatalf("recompiling %v left bits of the previous predicate", p)
		}
		got := f.QueryBatchInto(nil, keys, p)
		for i, k := range keys {
			if want := f.Query(k, p); got[i] != want {
				t.Fatalf("pred with %d conditions, key %d: batch=%v scalar=%v", len(p), k, got[i], want)
			}
		}
	}
	if raceEnabled {
		return // sync.Pool drops items under the race detector
	}
	dst := make([]bool, 0, len(keys))
	for _, p := range []Predicate{nil, one} {
		dst = f.QueryBatchInto(dst[:0], keys, p)
		if n := testing.AllocsPerRun(100, func() {
			dst = f.QueryBatchInto(dst[:0], keys, p)
		}); n != 0 {
			t.Errorf("%d-attribute filter, %d conditions: QueryBatchInto allocates %.2f allocs/op, want 0",
				nattr, len(p), n)
		}
	}
}

// TestQueryBatchEngineEquivalence pins batch results and the zero-alloc
// contract across probe engines: the hardware kernels (when this machine
// has them) and the forced scalar engine must produce identical result
// vectors, and neither may allocate in steady state. The fuzz form of
// this check is FuzzSIMDEquivalence; this deterministic form runs on
// every test pass and also covers the SetEngine("scalar") override knob.
func TestQueryBatchEngineEquivalence(t *testing.T) {
	defer func() {
		if err := simd.SetEngine("auto"); err != nil {
			t.Fatal(err)
		}
	}()
	for _, v := range allVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := loadedFilter(t, v)
			pred := And(Eq(0, 3), Eq(1, 2))
			keys := make([]uint64, 2048)
			for i := range keys {
				keys[i] = uint64(i) * 2654435761 // half present, half absent
			}
			if err := simd.SetEngine("auto"); err != nil {
				t.Fatal(err)
			}
			autoQ := f.QueryBatchInto(nil, keys, pred)
			autoK := f.QueryBatchInto(nil, keys, nil)
			if err := simd.SetEngine("scalar"); err != nil {
				t.Fatal(err)
			}
			scalQ := f.QueryBatchInto(nil, keys, pred)
			scalK := f.QueryBatchInto(nil, keys, nil)
			for i, k := range keys {
				if autoQ[i] != scalQ[i] {
					t.Fatalf("key %#x: QueryBatch %v under %s, %v under scalar",
						k, autoQ[i], simd.Best(), scalQ[i])
				}
				if want := f.QueryKey(k); autoK[i] != want || scalK[i] != want {
					t.Fatalf("key %#x: key-only QueryBatch %v under %s, %v under scalar, QueryKey %v",
						k, autoK[i], simd.Best(), scalK[i], want)
				}
			}
			if raceEnabled {
				return // sync.Pool drops items under the race detector
			}
			dst := make([]bool, 0, len(keys))
			if n := testing.AllocsPerRun(50, func() {
				dst = f.QueryBatchInto(dst[:0], keys, pred)
			}); n != 0 {
				t.Errorf("%s: scalar-engine QueryBatchInto allocates %.2f allocs/op, want 0", v, n)
			}
		})
	}
}

// loadedLadder builds a deliberately undersized ladder that has grown to
// several levels — the elastic-capacity steady state the batch probes
// must stay allocation-free in.
func loadedLadder(t testing.TB, attrBits int) (*Ladder, []uint64) {
	t.Helper()
	l, err := NewLadder(Params{Variant: VariantChained, NumAttrs: 2, Capacity: 1 << 11,
		AttrBits: attrBits, Seed: 42}, LadderOptions{MaxLevels: 6})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 1<<13)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 99
		if err := l.Insert(keys[i], []uint64{uint64(i % 16), uint64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Levels() < 2 {
		t.Fatalf("ladder did not grow (levels %d)", l.Levels())
	}
	return l, keys
}

// TestLadderQueryBatchZeroAlloc pins the multi-level batch pipeline: the
// pending-index scratch is pooled, so probing a grown ladder allocates
// nothing in steady state.
func TestLadderQueryBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	l, keys := loadedLadder(t, 0)
	pred := And(Eq(0, 3))
	batch := keys[:1024]
	out := make([]bool, 0, len(batch))
	out = l.QueryBatchInto(out, batch, pred) // warm the scratch pools
	if n := testing.AllocsPerRun(200, func() {
		out = l.QueryBatchInto(out[:0], batch, pred)
	}); n != 0 {
		t.Errorf("ladder QueryBatchInto allocates %.2f allocs/op, want 0", n)
	}
	wide, wideKeys := loadedLadder(t, 16)
	out = wide.QueryBatchInto(out[:0], wideKeys[:1024], wideInList)
	if n := testing.AllocsPerRun(200, func() {
		out = wide.QueryBatchInto(out[:0], wideKeys[:1024], wideInList)
	}); n != 0 {
		t.Errorf("AttrBits-16 ladder QueryBatchInto with an in-list allocates %.2f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		out = l.QueryBatchInto(out[:0], batch, nil)
	}); n != 0 {
		t.Errorf("ladder key-only QueryBatchInto allocates %.2f allocs/op, want 0", n)
	}
}

// BenchmarkLadderQuery tracks the cost of probing a grown ladder (the
// read-path tax of elastic capacity before a fold collapses it).
func BenchmarkLadderQuery(b *testing.B) {
	l, keys := loadedLadder(b, 0)
	pred := And(Eq(0, 3))
	const batch = 1024
	out := make([]bool, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * batch) % (len(keys) - batch)
		out = l.QueryBatchInto(out[:0], keys[lo:lo+batch], pred)
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
	}
}

func TestDeleteSteadyStateZeroAlloc(t *testing.T) {
	f := mustFilter(t, Params{Variant: VariantPlain, NumAttrs: 2, Capacity: 1 << 14, Seed: 11})
	attrs := []uint64{1, 2}
	k := uint64(0)
	if n := testing.AllocsPerRun(500, func() {
		if err := f.Insert(k, attrs); err != nil {
			t.Fatal(err)
		}
		if err := f.Delete(k, attrs); err != nil {
			t.Fatal(err)
		}
		k++
	}); n != 0 {
		t.Errorf("Insert+Delete allocates %.2f allocs/op, want 0", n)
	}
}

// Benchmarks for the CI bench-smoke job: core probe and insert cost with
// allocation reporting, per variant.

func BenchmarkCoreQuery(b *testing.B) {
	for _, v := range allVariants() {
		b.Run(v.String(), func(b *testing.B) {
			f := loadedFilter(b, v)
			pred := And(Eq(0, 3), Eq(1, 2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Query(uint64(i)&(1<<13-1), pred)
			}
		})
	}
}

// BenchmarkCoreQueryBatch measures the two-phase batched probe per key,
// next to BenchmarkCoreQuery's scalar per-call cost.
func BenchmarkCoreQueryBatch(b *testing.B) {
	for _, v := range allVariants() {
		b.Run(v.String(), func(b *testing.B) {
			f := loadedFilter(b, v)
			pred := And(Eq(0, 3), Eq(1, 2))
			const batch = 1024
			keys := make([]uint64, batch)
			dst := make([]bool, 0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := uint64(i) * batch
				for j := range keys {
					keys[j] = (base + uint64(j)) & (1<<13 - 1)
				}
				dst = f.QueryBatchInto(dst[:0], keys, pred)
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
			}
		})
	}
	// The shape ccfd's pushdown workload probes: the chained default
	// (b = 6, d = 3), keys with up to 8 distinct rows so chains form past
	// the first pair, two attributes, and an in-list holding a value
	// above 2^AttrBits (hashed, not stored exactly). Half the probed keys
	// are absent. ChainedPushdown's table fits one core's L2;
	// ChainedPushdownLarge's (11 MiB) does not, so it prices the probe's
	// cache misses and what prefetching hides of them. Those two probe
	// distinct keys only; ChainedPushdownRuns probes the large table with
	// each key repeated in a run of 1 to 4 (withRuns: 56% of positions
	// repeat, as 57% do in pushdown's requests).
	for _, sz := range []struct {
		name     string
		capacity int
		nkeys    uint64
		runs     bool
	}{
		{"ChainedPushdown", 1 << 15, 1 << 12, false},
		{"ChainedPushdownLarge", 1 << 20, 1 << 17, false},
		{"ChainedPushdownRuns", 1 << 20, 1 << 17, true},
	} {
		b.Run(sz.name, func(b *testing.B) {
			f, err := New(Params{Variant: VariantChained, NumAttrs: 2, Capacity: sz.capacity, Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			probe := make([]uint64, 0, 2*sz.nkeys)
			for k := uint64(0); k < sz.nkeys; k++ {
				key := k * 0x9e3779b97f4a7c15
				for r := uint64(0); r <= k%8; r++ {
					if err := f.Insert(key, []uint64{(k + r) % 8, []uint64{5, 300, 7, 1000}[r%4]}); err != nil {
						b.Fatal(err)
					}
				}
				probe = append(probe, key, key+1)
			}
			const batch = 1024
			if sz.runs {
				probe = withRuns(probe)
				probe = probe[:len(probe)/batch*batch]
			}
			pred := And(Eq(0, 3), In(1, 5, 300, 7))
			dst := make([]bool, 0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * batch) % len(probe)
				dst = f.QueryBatchInto(dst[:0], probe[lo:lo+batch], pred)
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
			}
		})
	}
}

func BenchmarkCoreQueryKey(b *testing.B) {
	f := loadedFilter(b, VariantChained)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.QueryKey(uint64(i))
	}
}

// BenchmarkCoreInsert loads 1<<14 rows per fresh filter. The variant
// cases give every row its own key; ChainedRuns16 gives each key 16 rows
// in a row with distinct vectors, the shape of a fact table sorted by
// key, where a chained insert resumes the key's chain walk.
func BenchmarkCoreInsert(b *testing.B) {
	for _, tc := range []struct {
		name    string
		v       Variant
		runRows int
	}{
		{"Plain", VariantPlain, 1},
		{"Chained", VariantChained, 1},
		{"Mixed", VariantMixed, 1},
		{"ChainedRuns16", VariantChained, 16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var f *Filter
			var err error
			attrs := []uint64{0, 0}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i&(1<<14-1) == 0 {
					b.StopTimer()
					f, err = New(Params{Variant: tc.v, NumAttrs: 2, Capacity: 1 << 15, Seed: 42})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				row := i & (1<<14 - 1)
				k := uint64(row / tc.runRows)
				attrs[0], attrs[1] = k%16+uint64(row%tc.runRows*16), k%7
				if err := f.Insert(k, attrs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSizingOverflowRejected pins the nextPow2 guard: bucket counts (or
// Capacity/TargetLoad derivations) above 2^31 must fail with a sizing
// error instead of wrapping to a zero-bucket table.
func TestSizingOverflowRejected(t *testing.T) {
	cases := []Params{
		{Buckets: 1<<31 + 1},
		{Buckets: 1<<32 - 1},
		{Capacity: 1 << 40},
		{Capacity: 1 << 33, TargetLoad: 0.5, BucketSize: 1},
	}
	for i, p := range cases {
		if _, err := New(p); err == nil {
			t.Errorf("case %d (%+v): oversized filter accepted", i, p)
		}
	}
	// The boundary itself is representable and must keep working.
	p := Params{}
	if err := p.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if got := nextPow2(1 << 31); got != 1<<31 {
		t.Fatalf("nextPow2(2^31) = %d, want 2^31", got)
	}
	if got := nextPow2(1<<31 + 1); got != 0 {
		// Documents the wrap the guard exists for.
		t.Fatalf("nextPow2(2^31+1) = %d, expected wrap to 0", got)
	}
}

// TestInsertBloomSkipsTombstonedEntry pins the false-negative fix: a
// Bloom-variant entry tombstoned by a predicate view must never absorb
// new rows for its key, because its sketch can no longer match any query.
// The fixed insert path skips tombstoned slots when looking for the key's
// existing entry and creates a fresh live entry instead.
func TestInsertBloomSkipsTombstonedEntry(t *testing.T) {
	f := mustFilter(t, Params{Variant: VariantBloom, NumAttrs: 1, Capacity: 1 << 10, BloomBits: 64, Seed: 17})
	const key = 12345
	if err := f.Insert(key, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	// Tombstone the key's entry, simulating a view erasure on a filter
	// that later keeps absorbing rows.
	fp := f.fingerprint(key)
	marked := 0
	for idx, got := range f.fps {
		if got == fp {
			f.flags[idx] |= flagTombstone
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("key not present; test is vacuous")
	}
	if err := f.Insert(key, []uint64{99}); err != nil {
		t.Fatal(err)
	}
	if !f.Query(key, And(Eq(0, 99))) {
		t.Fatal("row inserted after tombstoning is invisible (false negative)")
	}
}
