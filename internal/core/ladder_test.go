package core

import (
	"testing"
)

func ladderRow(i int) (uint64, []uint64) {
	return uint64(i)*2654435761 + 17, []uint64{uint64(i % 8), uint64(i % 5)}
}

// TestLadderAbsorbsOverrun is the acceptance property: a ladder whose
// base filter was sized for N rows accepts 4N distinct rows without a
// single error, opens levels while doing it, and answers every inserted
// row (point, key-only, and both batch forms) with no false negative.
func TestLadderAbsorbsOverrun(t *testing.T) {
	const n = 4096
	for _, variant := range []Variant{VariantPlain, VariantChained, VariantBloom, VariantMixed} {
		t.Run(variant.String(), func(t *testing.T) {
			l, err := NewLadder(
				Params{Variant: variant, NumAttrs: 2, Capacity: n, Seed: 42},
				LadderOptions{MaxLevels: 6},
			)
			if err != nil {
				t.Fatal(err)
			}
			total := 4 * n
			keys := make([]uint64, total)
			for i := 0; i < total; i++ {
				k, attrs := ladderRow(i)
				keys[i] = k
				if err := l.Insert(k, attrs); err != nil {
					t.Fatalf("%s: insert %d of %d: %v (levels %d)", variant, i, total, err, l.Levels())
				}
			}
			if l.Levels() < 2 {
				t.Fatalf("expected growth, still %d level(s)", l.Levels())
			}
			if got := l.Rows(); got != total {
				t.Fatalf("Rows() = %d, want %d", got, total)
			}
			pred := make([]Predicate, total)
			for i := range pred {
				_, attrs := ladderRow(i)
				pred[i] = And(Eq(0, attrs[0]), Eq(1, attrs[1]))
			}
			out := l.QueryBatchInto(nil, keys, And(Eq(0, 1)))
			for i, k := range keys {
				if !l.Query(k, pred[i]) {
					t.Fatalf("false negative: point query key %d", k)
				}
				if !l.QueryKey(k) {
					t.Fatalf("false negative: QueryKey %d", k)
				}
				_, attrs := ladderRow(i)
				if attrs[0] == 1 && !out[i] {
					t.Fatalf("false negative: batch query key %d", k)
				}
			}
			// Key membership is the empty predicate; QueryKey answered
			// true for every key above.
			keyOnly := l.QueryBatchInto(nil, keys, nil)
			for i, ok := range keyOnly {
				if !ok {
					t.Fatalf("false negative: key-only batch query key %d", keys[i])
				}
			}
		})
	}
}

// TestLadderGrowthDisabled pins the compatibility contract: MaxLevels ≤ 1
// behaves exactly like a bare filter, surfacing ErrFull.
func TestLadderGrowthDisabled(t *testing.T) {
	l, err := NewLadder(Params{Variant: VariantPlain, NumAttrs: 1, Capacity: 64, Seed: 3}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	for i := 0; i < 4096; i++ {
		k, _ := ladderRow(i)
		if err := l.Insert(k, []uint64{uint64(i % 3)}); err == ErrFull {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("expected ErrFull with growth disabled")
	}
	if l.Levels() != 1 {
		t.Fatalf("levels = %d, want 1", l.Levels())
	}
	if err := l.Grow(); err != ErrMaxLevels {
		t.Fatalf("Grow with MaxLevels 1: %v, want ErrMaxLevels", err)
	}
}

// TestLadderDeleteAcrossLevels deletes rows that live in different
// levels (Plain variant) and verifies both the hit and the miss paths.
func TestLadderDeleteAcrossLevels(t *testing.T) {
	const n = 512
	l, err := NewLadder(Params{Variant: VariantPlain, NumAttrs: 1, Capacity: n, Seed: 9},
		LadderOptions{MaxLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 3 * n
	for i := 0; i < total; i++ {
		k, _ := ladderRow(i)
		if err := l.Insert(k, []uint64{uint64(i % 4)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if l.Levels() < 2 {
		t.Fatalf("expected growth, got %d level(s)", l.Levels())
	}
	// Rows inserted first live in the oldest level; rows inserted last in
	// the newest. Both must be deletable.
	for _, i := range []int{0, 1, total - 2, total - 1} {
		k, _ := ladderRow(i)
		if err := l.Delete(k, []uint64{uint64(i % 4)}); err != nil {
			t.Fatalf("delete row %d: %v", i, err)
		}
	}
	if got := l.Rows(); got != total-4 {
		t.Fatalf("Rows after deletes = %d, want %d", got, total-4)
	}
	if err := l.Delete(1<<60, []uint64{0}); err != ErrNotFound {
		t.Fatalf("delete of absent key: %v, want ErrNotFound", err)
	}
}

// TestLadderMarshalRoundTrip checks the versioned envelope and that a
// bare pre-ladder filter payload still decodes (old snapshots and
// checkpoint segments must keep recovering).
func TestLadderMarshalRoundTrip(t *testing.T) {
	l, err := NewLadder(Params{Variant: VariantChained, NumAttrs: 2, Capacity: 256, Seed: 5},
		LadderOptions{MaxLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 1024
	for i := 0; i < total; i++ {
		k, attrs := ladderRow(i)
		if err := l.Insert(k, attrs); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if l.Levels() < 2 {
		t.Fatalf("expected growth, got %d level(s)", l.Levels())
	}
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Ladder
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Levels() != l.Levels() || back.Grows() != l.Grows() || back.Rows() != l.Rows() {
		t.Fatalf("round trip: levels %d/%d grows %d/%d rows %d/%d",
			back.Levels(), l.Levels(), back.Grows(), l.Grows(), back.Rows(), l.Rows())
	}
	if back.Options() != l.Options() {
		t.Fatalf("round trip options: %+v vs %+v", back.Options(), l.Options())
	}
	for i := 0; i < total; i++ {
		k, attrs := ladderRow(i)
		if !back.Query(k, And(Eq(0, attrs[0]), Eq(1, attrs[1]))) {
			t.Fatalf("false negative after round trip: row %d", i)
		}
	}

	// Legacy payload: a bare filter decodes as a one-level ladder.
	f, err := New(Params{Variant: VariantChained, NumAttrs: 1, Capacity: 128, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := f.Insert(uint64(i), []uint64{uint64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	fblob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var legacy Ladder
	if err := legacy.UnmarshalBinary(fblob); err != nil {
		t.Fatalf("legacy payload: %v", err)
	}
	if legacy.Levels() != 1 || legacy.Options().MaxLevels != 1 {
		t.Fatalf("legacy decode: levels %d, MaxLevels %d", legacy.Levels(), legacy.Options().MaxLevels)
	}
	for i := 0; i < 64; i++ {
		if !legacy.QueryKey(uint64(i)) {
			t.Fatalf("legacy false negative for key %d", i)
		}
	}
}

// TestLadderStats verifies the aggregate and per-level breakdown.
func TestLadderStats(t *testing.T) {
	l, err := NewLadder(Params{Variant: VariantChained, NumAttrs: 1, Capacity: 256, Seed: 6},
		LadderOptions{MaxLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 900
	for i := 0; i < total; i++ {
		k, _ := ladderRow(i)
		if err := l.Insert(k, []uint64{uint64(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Levels != l.Levels() || len(st.PerLevel) != st.Levels {
		t.Fatalf("levels: %d vs %d (per-level %d)", st.Levels, l.Levels(), len(st.PerLevel))
	}
	if st.Rows != total {
		t.Fatalf("rows %d, want %d", st.Rows, total)
	}
	sum := 0
	for i, fs := range st.PerLevel {
		sum += fs.Occupied
		if fs.FreeSlots != fs.Capacity-fs.Occupied {
			t.Fatalf("level %d free slots %d, want %d", i, fs.FreeSlots, fs.Capacity-fs.Occupied)
		}
		if i > 0 && fs.Buckets <= st.PerLevel[i-1].Buckets {
			t.Fatalf("level %d buckets %d not larger than level %d's %d",
				i, fs.Buckets, i-1, st.PerLevel[i-1].Buckets)
		}
	}
	if sum != st.Occupied {
		t.Fatalf("per-level occupancy %d != aggregate %d", sum, st.Occupied)
	}
	if st.Grows != st.Levels-1 {
		t.Fatalf("grows %d, want %d", st.Grows, st.Levels-1)
	}
	if st.FreeSlots != st.Capacity-st.Occupied {
		t.Fatalf("free slots %d, want %d", st.FreeSlots, st.Capacity-st.Occupied)
	}
}

// TestLadderBatchMatchesPoint cross-checks the multi-level batch
// pipeline against scalar queries over present and absent keys, probed
// once each and again in runs of equal keys, on a ladder of exactly two
// levels and on a deeper one.
func TestLadderBatchMatchesPoint(t *testing.T) {
	for _, tc := range []struct{ maxLevels, rows int }{{5, 2000}, {2, 1000}} {
		l, err := NewLadder(Params{Variant: VariantChained, NumAttrs: 2, Capacity: 512, Seed: 11},
			LadderOptions{MaxLevels: tc.maxLevels})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.rows; i++ {
			k, attrs := ladderRow(i)
			if err := l.Insert(k, attrs); err != nil {
				t.Fatal(err)
			}
		}
		if l.Levels() < 2 {
			t.Fatalf("expected growth, got %d level(s)", l.Levels())
		}
		probe := make([]uint64, 0, 2*tc.rows)
		for i := 0; i < tc.rows; i++ {
			k, _ := ladderRow(i)
			probe = append(probe, k, k^0xdeadbeef13371337) // present + likely-absent
		}
		pred := And(Eq(0, 2))
		for _, keys := range [][]uint64{probe, withRuns(probe)} {
			batch := l.QueryBatchInto(nil, keys, pred)
			keyBatch := l.QueryBatchInto(nil, keys, nil)
			for i, k := range keys {
				if want := l.Query(k, pred); batch[i] != want {
					t.Fatalf("levels=%d: batch[%d] = %v, point = %v (key %d)", l.Levels(), i, batch[i], want, k)
				}
				if want := l.QueryKey(k); keyBatch[i] != want {
					t.Fatalf("levels=%d: keyBatch[%d] = %v, point = %v (key %d)", l.Levels(), i, keyBatch[i], want, k)
				}
			}
		}
	}
}
