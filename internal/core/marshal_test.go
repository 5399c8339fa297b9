package core

import (
	"slices"
	"testing"
)

func buildForMarshal(t *testing.T, v Variant) *Filter {
	t.Helper()
	f := mustFilter(t, Params{Variant: v, NumAttrs: 2, Capacity: 4096, BloomBits: 24, Seed: 61})
	for k := uint64(0); k < 800; k++ {
		n := uint64(1)
		if k%7 == 0 {
			n = 6 // trigger chains / conversions
		}
		for d := uint64(0); d < n; d++ {
			err := f.Insert(k, []uint64{d, k % 5})
			if err == ErrFull && v == VariantPlain {
				// Plain cuckoo filters legitimately fail under heavy
				// duplicates (Figure 4); skip the row, the round-trip
				// comparison below only needs a populated filter.
				continue
			}
			if err != nil {
				t.Fatalf("%s insert: %v", v, err)
			}
		}
	}
	return f
}

func TestMarshalRoundTripAllVariants(t *testing.T) {
	for _, v := range allVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := buildForMarshal(t, v)
			data, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var g Filter
			if err := g.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if g.OccupiedEntries() != f.OccupiedEntries() || g.Rows() != f.Rows() {
				t.Fatalf("counters lost: occ %d→%d rows %d→%d",
					f.OccupiedEntries(), g.OccupiedEntries(), f.Rows(), g.Rows())
			}
			// Buckets/Capacity/TargetLoad are construction inputs, not
			// state; normalize them before comparing.
			fp, gp := f.Params(), g.Params()
			fp.Buckets, gp.Buckets = 0, 0
			fp.Capacity, gp.Capacity = 0, 0
			fp.TargetLoad, gp.TargetLoad = 0, 0
			if fp != gp {
				t.Fatalf("params lost:\n%+v\n%+v", fp, gp)
			}
			if g.NumBuckets() != f.NumBuckets() {
				t.Fatalf("bucket count lost: %d → %d", f.NumBuckets(), g.NumBuckets())
			}
			// Decoded filter must answer identically on a probe battery.
			for k := uint64(0); k < 800; k++ {
				for d := uint64(0); d < 3; d++ {
					pred := And(Eq(0, d), Eq(1, k%5))
					if f.Query(k, pred) != g.Query(k, pred) {
						t.Fatalf("query divergence after round trip: key %d attr %d", k, d)
					}
				}
				if f.QueryKey(k+1<<40) != g.QueryKey(k+1<<40) {
					t.Fatalf("key-only divergence after round trip: %d", k)
				}
			}
		})
	}
}

func TestMarshalMixedGroupSharingPreserved(t *testing.T) {
	f := buildForMarshal(t, VariantMixed)
	if f.Conversions() == 0 {
		t.Fatal("workload produced no conversions; test is vacuous")
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// Distinct group sketches must be shared after decoding: count the
	// arena references.
	distinct := map[int32]bool{}
	perGroupRefs := 0
	for _, ref := range g.sketch {
		if ref != sketchNone {
			distinct[ref] = true
			perGroupRefs++
		}
	}
	if len(distinct) == 0 {
		t.Fatal("groups lost in round trip")
	}
	if perGroupRefs < len(distinct)*2 {
		t.Fatalf("group sharing lost: %d refs over %d groups (want ≥ d refs per group)",
			perGroupRefs, len(distinct))
	}
	// Inserting into the decoded filter continues to work.
	if err := g.Insert(7, []uint64{12345, 2}); err != nil {
		t.Fatalf("insert after decode: %v", err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	f := buildForMarshal(t, VariantChained)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	if err := g.UnmarshalBinary(data[:7]); err == nil {
		t.Fatal("truncated header accepted")
	}
	if err := g.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Fatal("truncated body accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	withTrailing := append(append([]byte(nil), data...), 0x00)
	if err := g.UnmarshalBinary(withTrailing); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	f := buildForMarshal(t, VariantBloom)
	a, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("MarshalBinary not deterministic")
	}
}

func TestDecodedFilterKeepsInserting(t *testing.T) {
	// A stored filter must be usable as a live filter after loading:
	// inserts, chains and queries keep working (pre-built + updatable).
	f := buildForMarshal(t, VariantChained)
	data, _ := f.MarshalBinary()
	var g Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for k := uint64(5000); k < 5200; k++ {
		if err := g.Insert(k, []uint64{k % 3, k % 5}); err != nil {
			t.Fatalf("insert after decode: %v", err)
		}
	}
	for k := uint64(5000); k < 5200; k++ {
		if !g.Query(k, And(Eq(0, k%3), Eq(1, k%5))) {
			t.Fatalf("false negative on post-decode insert %d", k)
		}
	}
}

// TestUnmarshalRejectsCorruptFlags sets one flags byte that no filter
// writes and requires the decoder to refuse the payload: a converted bit
// outside a Mixed group member, or a tombstone, would send a probe into
// sketch storage the slot does not have.
func TestUnmarshalRejectsCorruptFlags(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.String(), func(t *testing.T) {
			f := buildForMarshal(t, v)
			data, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			// The flags follow the magic, 19 header words and the fps.
			flagsAt := 8 + 19*8 + 2*f.Capacity()
			slot := slices.IndexFunc(f.fps, func(fp uint16) bool { return fp != 0 })
			for slot >= 0 && f.flags[slot] != 0 {
				slot++ // an unconverted Mixed slot: it has no group reference
			}
			if data[flagsAt+slot] != 0 {
				t.Fatalf("slot %d: flags byte is %#x, want 0", slot, data[flagsAt+slot])
			}
			for _, fl := range []uint8{flagConverted, flagTombstone, flagConverted | flagTombstone, 0x80} {
				bad := slices.Clone(data)
				bad[flagsAt+slot] = fl
				if err := new(Filter).UnmarshalBinary(bad); err == nil {
					t.Errorf("flags %#x on occupied slot %d accepted", fl, slot)
				}
			}
			// An empty slot holds no flags either.
			empty := slices.Index(f.fps, 0)
			bad := slices.Clone(data)
			bad[flagsAt+empty] = flagConverted
			if err := new(Filter).UnmarshalBinary(bad); err == nil {
				t.Errorf("converted flag on empty slot %d accepted", empty)
			}
		})
	}
}
