package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// refInsert is Filter.Insert with Algorithm 4's per-row walk for the
// chained variant: every row walks its key's chain from the first pair
// and touches no run state. It is the reference the run-resuming insert
// must match exactly, entry for entry.
func refInsert(f *Filter, key uint64, attrs []uint64) error {
	err := refInsertLevel(f, key, attrs)
	if err == ErrChainLimit {
		f.discarded++
	}
	return err
}

// refLadderInsert is Ladder.Insert over refInsertLevel.
func refLadderInsert(l *Ladder, key uint64, attrs []uint64) error {
	for {
		newest := l.lv[len(l.lv)-1]
		err := refInsertLevel(newest, key, attrs)
		if err != ErrFull && err != ErrChainLimit {
			return err
		}
		if _, gerr := l.openLevel(); gerr != nil {
			if err == ErrChainLimit {
				newest.discarded++
			}
			return err
		}
	}
}

// refInsertLevel is Filter.insert with the per-row chained walk.
func refInsertLevel(f *Filter, key uint64, attrs []uint64) error {
	if f.p.Variant != VariantChained {
		return f.insert(key, attrs)
	}
	if len(attrs) != f.p.NumAttrs {
		return ErrAttrCount
	}
	err := f.refInsertChained(f.fingerprint(key), f.homeBucket(key), attrs)
	if err == nil {
		f.rows++
	}
	return err
}

// refInsertChained walks the chain of bucket pairs from the first pair
// until one holds fewer than d copies of κ, then cuckoo-inserts there,
// deduplicating against each pair on the way.
func (f *Filter) refInsertChained(fp uint16, home uint32, attrs []uint64) error {
	c := f.resetCarried()
	c.fp = fp
	f.attrVector(attrs, c.attr)
	var seq chainSeq
	f.initChainSeq(&seq, fp, home)
	for {
		l1, l2 := seq.buckets()
		if f.pairHasVector(l1, l2, fp, c.attr) {
			return nil
		}
		if f.countFpInPair(l1, l2, fp) < f.p.MaxDupes {
			if f.placeWithKicks(l1, l2, c) {
				f.recordChainDepth(seq.pairs)
				return nil
			}
			return ErrFull
		}
		if !seq.advance() {
			return ErrChainLimit
		}
	}
}

// requireSameFilter fails unless got and want hold identical tables,
// RNG state and counters.
func requireSameFilter(t *testing.T, got, want *Filter) {
	t.Helper()
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatal("MarshalBinary differs from the per-row walk's")
	}
	if got.Rows() != want.Rows() || got.Discarded() != want.Discarded() {
		t.Fatalf("rows/discarded %d/%d, per-row walk %d/%d",
			got.Rows(), got.Discarded(), want.Rows(), want.Discarded())
	}
	if g, w := got.ChainDepthHistogram(), want.ChainDepthHistogram(); !slices.Equal(g, w) {
		t.Fatalf("chain depths %v, per-row walk %v", g, w)
	}
}

// twin returns two filters built from the same params: one for Insert,
// one for the reference walk.
func twin(t *testing.T, p Params) (*Filter, *Filter) {
	t.Helper()
	return mustFilter(t, p), mustFilter(t, p)
}

// insertBoth inserts one row into got through Insert and into want
// through the reference walk, and fails if the errors differ.
func insertBoth(t *testing.T, got, want *Filter, key uint64, attrs []uint64) error {
	t.Helper()
	err := got.Insert(key, attrs)
	if werr := refInsert(want, key, attrs); err != werr {
		t.Fatalf("insert(%d, %v) = %v, per-row walk %v", key, attrs, err, werr)
	}
	return err
}

// runTape replays a chained-insert tape on a filter through Insert and
// on its twin through the reference walk, row by row, and returns how
// many rows failed with ErrFull and with ErrChainLimit. Each op is three
// bytes: a key selector and up to two attribute values. A selector with
// low bits 0 names a new key from a small set; 1 switches back to the
// key before the current one (A, B, A); anything else repeats the
// current key, so runs are the common case. Attribute values come from
// a small range, so rows repeat vectors too.
func runTape(t *testing.T, p Params, tape []byte) (full, limited int) {
	t.Helper()
	got, want := twin(t, p)
	attrs := make([]uint64, want.Params().NumAttrs)
	var cur, prev uint64
	for i := 0; i+3 <= len(tape); i += 3 {
		switch sel := tape[i]; sel & 3 {
		case 0:
			prev, cur = cur, uint64(sel>>2)%48
		case 1:
			prev, cur = cur, prev
		}
		attrs[0] = uint64(tape[i+1] % 12)
		if len(attrs) > 1 {
			attrs[1] = uint64(tape[i+2] % 5)
		}
		switch insertBoth(t, got, want, cur, attrs) {
		case ErrFull:
			full++
		case ErrChainLimit:
			limited++
		}
	}
	requireSameFilter(t, got, want)
	return full, limited
}

// tapeParams derives a chained filter's params from fuzzed bytes:
// KeyBits 3–12 (3 gives fingerprint collisions between keys), Capacity
// 16–512 (small tables run into ErrFull), MaxKicks 5–500, MaxChain 0–4
// (small budgets run into ErrChainLimit), one or two attributes.
func tapeParams(keyBits uint8, capacity, kicks uint16, chain uint8, seed uint64) Params {
	return Params{
		Variant:  VariantChained,
		KeyBits:  3 + int(keyBits%10),
		Capacity: 16 + int(capacity%497),
		MaxKicks: 5 + int(kicks%496),
		MaxChain: int(chain % 5),
		NumAttrs: 1 + int(chain/5%2),
		Seed:     seed,
	}
}

// FuzzChainRun drives one tape of chained inserts into two filters with
// the same params, one through Insert (which resumes a key's chain walk
// while the key repeats) and one through the per-row reference walk, and
// requires identical per-row errors, bytes, row and discard counts, and
// chain-depth histograms.
func FuzzChainRun(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(0), uint8(0), []byte{4, 1, 0, 6, 2, 0, 6, 3, 1, 8, 1, 0, 5, 4, 0, 6, 5, 0})
	f.Add(uint8(9), uint16(200), uint16(495), uint8(1), []byte{8, 0, 0, 2, 1, 1, 2, 2, 2, 2, 3, 3, 2, 4, 4, 2, 1, 1})
	f.Add(uint8(0), uint16(400), uint16(3), uint8(7), []byte{12, 1, 1, 2, 2, 2, 16, 3, 3, 1, 4, 4, 1, 5, 0, 2, 6, 1})
	f.Add(uint8(2), uint16(16), uint16(0), uint8(2), bytes.Repeat([]byte{2, 7, 3, 2, 9, 1, 0, 4, 4}, 20))
	f.Fuzz(func(t *testing.T, keyBits uint8, capacity, kicks uint16, chain uint8, tape []byte) {
		runTape(t, tapeParams(keyBits, capacity, kicks, chain, 31), tape)
	})
}

// TestChainRunRandomTapes runs the fuzz target's check over random tapes
// in every test pass; the set must reach both ErrFull and ErrChainLimit.
func TestChainRunRandomTapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 300
	if testing.Short() {
		n = 50
	}
	var full, limited int
	for i := 0; i < n; i++ {
		p := tapeParams(uint8(rng.Intn(256)), uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)),
			uint8(rng.Intn(256)), uint64(i))
		tape := make([]byte, 3*rng.Intn(300))
		rng.Read(tape)
		f, l := runTape(t, p, tape)
		full += f
		limited += l
	}
	if full == 0 || limited == 0 {
		t.Fatalf("%d rows hit ErrFull and %d ErrChainLimit; want both", full, limited)
	}
}

// TestChainRunCases pins the run's edge cases against the per-row walk.
func TestChainRunCases(t *testing.T) {
	t.Run("SpansPairs", func(t *testing.T) {
		got, want := twin(t, Params{Variant: VariantChained, Capacity: 4096, Seed: 3})
		for v := uint64(0); v < 20; v++ {
			if err := insertBoth(t, got, want, 77, []uint64{v}); err != nil {
				t.Fatal(err)
			}
		}
		requireSameFilter(t, got, want)
		if h := got.ChainDepthHistogram(); h[0] != 3 || h[6] != 2 {
			t.Fatalf("depths %v, want 3 rows in each of pairs 1–6 and 2 in pair 7", h)
		}
		pairCopyInvariant(t, got)
	})
	t.Run("DuplicateInRun", func(t *testing.T) {
		got, want := twin(t, Params{Variant: VariantChained, NumAttrs: 2, Capacity: 1024, Seed: 4})
		for _, v := range []uint64{1, 2, 3, 4, 5, 1, 4, 6, 2, 6} {
			insertBoth(t, got, want, 9, []uint64{v, v % 3})
		}
		requireSameFilter(t, got, want)
		if got.Rows() != 10 || got.OccupiedEntries() != 6 {
			t.Fatalf("rows %d, entries %d; want 10 rows in 6 entries", got.Rows(), got.OccupiedEntries())
		}
	})
	t.Run("AliasBetweenRuns", func(t *testing.T) {
		// A and B share a fingerprint and a home bucket, so B's rows land
		// in A's pairs: A's second run must see them.
		p := Params{Variant: VariantChained, KeyBits: 4, Buckets: 64, Seed: 5}
		got, want := twin(t, p)
		a, b := aliasKeys(t, got)
		for _, r := range []struct{ k, v uint64 }{{a, 1}, {a, 2}, {b, 3}, {b, 4}, {a, 5}, {a, 6}, {b, 7}, {a, 3}, {a, 8}} {
			insertBoth(t, got, want, r.k, []uint64{r.v})
		}
		requireSameFilter(t, got, want)
		pairCopyInvariant(t, got)
		if h := got.ChainDepthHistogram(); h[0] != 3 || h[1] != 3 || h[2] != 2 {
			t.Fatalf("depths %v, want pairs 1–3 holding 3, 3 and 2", h)
		}
	})
	t.Run("FullMidRun", func(t *testing.T) {
		// Fill a 16-slot table most of the way with one-row keys, then run
		// one key until its placements fail: its rows before and after an
		// ErrFull must match the per-row walk.
		midRun := 0
		for seed := uint64(0); seed < 32; seed++ {
			got, want := twin(t, Params{Variant: VariantChained, Buckets: 8, BucketSize: 2,
				MaxDupes: 2, MaxKicks: 5, Seed: seed})
			for k := uint64(100); k < 1000 && got.OccupiedEntries() < 12; k++ {
				insertBoth(t, got, want, k, []uint64{0})
			}
			stored := 0
			for v := uint64(0); v < 24; v++ {
				switch insertBoth(t, got, want, 5, []uint64{v}) {
				case nil:
					stored++
				case ErrFull:
					if got.scratch.run.live {
						t.Fatal("ErrFull left the run live")
					}
					if stored > 0 {
						midRun++
					}
				}
			}
			requireSameFilter(t, got, want)
		}
		if midRun == 0 {
			t.Fatal("no seed hit ErrFull after a stored row of the run")
		}
	})
	t.Run("AfterChainLimit", func(t *testing.T) {
		got, want := twin(t, Params{Variant: VariantChained, MaxChain: 1, Capacity: 1024, Seed: 7})
		wantErrs := []error{nil, nil, nil, ErrChainLimit, ErrChainLimit, nil, ErrChainLimit, nil}
		for i, v := range []uint64{1, 2, 3, 4, 5, 2, 6, 1} {
			if err := insertBoth(t, got, want, 11, []uint64{v}); err != wantErrs[i] {
				t.Fatalf("row %d: %v, want %v", i, err, wantErrs[i])
			}
		}
		requireSameFilter(t, got, want)
		if got.Discarded() != 3 || got.Rows() != 5 {
			t.Fatalf("discarded %d, rows %d; want 3 and 5", got.Discarded(), got.Rows())
		}
	})
	t.Run("LadderOpensMidRun", func(t *testing.T) {
		p := Params{Variant: VariantChained, MaxChain: 1, Capacity: 256, Seed: 8}
		got, err := NewLadder(p, LadderOptions{MaxLevels: 3})
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewLadder(p, LadderOptions{MaxLevels: 3})
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(0); v < 12; v++ {
			err := got.Insert(21, []uint64{v})
			if werr := refLadderInsert(want, 21, []uint64{v}); err != werr {
				t.Fatalf("row %d: %v, per-row walk %v", v, err, werr)
			}
		}
		if got.Levels() != 3 || want.Levels() != 3 {
			t.Fatalf("levels %d and %d, want 3", got.Levels(), want.Levels())
		}
		for i := range got.lv {
			requireSameFilter(t, got.lv[i], want.lv[i])
		}
	})
	t.Run("DropsOversizedCache", func(t *testing.T) {
		f := mustFilter(t, Params{Variant: VariantChained, Capacity: 256, Seed: 11})
		f.scratch.run.vecs = make([]uint16, 0, maxRunVecs+1)
		if err := f.Insert(1, []uint64{1}); err != nil {
			t.Fatal(err)
		}
		if c := cap(f.scratch.run.vecs); c > maxRunVecs {
			t.Fatalf("a new run kept a %d-fingerprint cache", c)
		}
	})
	t.Run("DegeneratePair", func(t *testing.T) {
		p := Params{Variant: VariantChained, Buckets: 64, Seed: 9}
		got, want := twin(t, p)
		key := degenerateKey(t, got)
		for v := uint64(0); v < 10; v++ {
			if err := insertBoth(t, got, want, key, []uint64{v}); err != nil {
				t.Fatal(err)
			}
		}
		requireSameFilter(t, got, want)
		pairCopyInvariant(t, got)
		if h := got.ChainDepthHistogram(); h[0] != 3 {
			t.Fatalf("depths %v, want 3 rows in the degenerate first pair", h)
		}
	})
}

// aliasKeys returns two distinct keys with the same fingerprint and home
// bucket in f.
func aliasKeys(t *testing.T, f *Filter) (uint64, uint64) {
	t.Helper()
	seen := map[[2]uint32]uint64{}
	for k := uint64(1); k < 1<<16; k++ {
		id := [2]uint32{uint32(f.fingerprint(k)), f.homeBucket(k)}
		if a, ok := seen[id]; ok {
			return a, k
		}
		seen[id] = k
	}
	t.Fatal("no aliasing keys found")
	return 0, 0
}

// degenerateKey returns a key whose first pair is one bucket (ℓ = ℓ′).
func degenerateKey(t *testing.T, f *Filter) uint64 {
	t.Helper()
	for k := uint64(1); k < 1<<20; k++ {
		if f.fpOffset(f.fingerprint(k)) == 0 {
			return k
		}
	}
	t.Fatal("no key with a degenerate pair found")
	return 0
}

// TestLadderChainLimitRetryNotDiscarded: a row the ladder stores on a new
// level after the newest level's chain limit is not a discarded row.
func TestLadderChainLimitRetryNotDiscarded(t *testing.T) {
	p := Params{Variant: VariantChained, MaxChain: 1, Capacity: 256, Seed: 10}
	for _, tc := range []struct {
		levels          int
		vecs            []uint64
		errs            []error
		rows, discarded int
	}{
		// The fourth vector overflows the one-pair chain and opens a level.
		{2, []uint64{1, 2, 3, 4, 5}, []error{nil, nil, nil, nil, nil}, 5, 0},
		{1, []uint64{1, 2, 3, 4}, []error{nil, nil, nil, ErrChainLimit}, 3, 1},
	} {
		l, err := NewLadder(p, LadderOptions{MaxLevels: tc.levels})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range tc.vecs {
			if err := l.Insert(33, []uint64{v}); err != tc.errs[i] {
				t.Fatalf("MaxLevels %d row %d: %v, want %v", tc.levels, i, err, tc.errs[i])
			}
		}
		perLevel := 0
		for _, fs := range l.Stats().PerLevel {
			perLevel += fs.Discarded
		}
		if l.Rows() != tc.rows || l.Discarded() != tc.discarded || perLevel != tc.discarded {
			t.Fatalf("MaxLevels %d: rows %d, Discarded %d, per-level %d; want %d, %d",
				tc.levels, l.Rows(), l.Discarded(), perLevel, tc.rows, tc.discarded)
		}
	}
}
