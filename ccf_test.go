package ccf_test

import (
	"errors"
	"fmt"
	"testing"

	"ccf"
)

func ExampleFilter() {
	f, err := ccf.New(ccf.Params{Variant: ccf.Chained, NumAttrs: 2, Capacity: 1024})
	if err != nil {
		panic(err)
	}
	// Rows: (movie id, role id, kind id).
	_ = f.Insert(101, []uint64{4, 1})
	_ = f.Insert(101, []uint64{2, 1})
	_ = f.Insert(202, []uint64{4, 7})

	fmt.Println(f.Query(101, ccf.And(ccf.Eq(0, 4))))               // role 4 for movie 101?
	fmt.Println(f.Query(202, ccf.And(ccf.Eq(0, 4), ccf.Eq(1, 1)))) // role 4 AND kind 1 for 202?
	fmt.Println(f.QueryKey(999))                                   // unknown movie
	// Output:
	// true
	// false
	// false
}

func TestPublicAPIEndToEnd(t *testing.T) {
	for _, v := range []ccf.Variant{ccf.Plain, ccf.Chained, ccf.Bloom, ccf.Mixed} {
		f, err := ccf.New(ccf.Params{Variant: v, NumAttrs: 1, Capacity: 2048, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 500; k++ {
			if err := f.Insert(k, []uint64{k % 6}); err != nil {
				t.Fatalf("%v: %v", v, err)
			}
		}
		for k := uint64(0); k < 500; k++ {
			if !f.Query(k, ccf.And(ccf.Eq(0, k%6))) {
				t.Fatalf("%v: false negative", v)
			}
		}
	}
}

func TestPublicErrors(t *testing.T) {
	f, err := ccf.New(ccf.Params{Variant: ccf.Chained, NumAttrs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(1, []uint64{1}); !errors.Is(err, ccf.ErrAttrCount) {
		t.Fatalf("got %v, want ErrAttrCount", err)
	}
	if err := f.Delete(1, []uint64{1, 2}); !errors.Is(err, ccf.ErrUnsupported) {
		t.Fatalf("got %v, want ErrUnsupported", err)
	}
}

func TestPublicBinner(t *testing.T) {
	b, err := ccf.NewBinner(1880, 2019, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ccf.New(ccf.Params{Variant: ccf.Chained, NumAttrs: 1, Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(1, []uint64{b.Bin(1994)}); err != nil {
		t.Fatal(err)
	}
	if !f.Query(1, ccf.And(b.InRange(0, 1990, 2000))) {
		t.Fatal("range query false negative")
	}
}

func TestPublicDyadic(t *testing.T) {
	d, err := ccf.NewDyadic(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ccf.New(ccf.Params{Variant: ccf.Chained, NumAttrs: 1, AttrBits: 16, Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range d.IntervalIDs(37) {
		if err := f.Insert(9, []uint64{id}); err != nil {
			t.Fatal(err)
		}
	}
	if !f.Query(9, ccf.And(ccf.In(0, d.CoverRange(30, 40)...))) {
		t.Fatal("dyadic range false negative")
	}
}

func TestPublicSizing(t *testing.T) {
	mult := []int{1, 2, 50}
	p := ccf.Params{Variant: ccf.Chained}
	n := ccf.PredictEntries(ccf.Chained, mult, p)
	if n != 53 {
		t.Fatalf("PredictEntries = %d, want 53", n)
	}
	m := ccf.RecommendBuckets(n, 6, 0.75)
	if m == 0 || m&(m-1) != 0 {
		t.Fatalf("RecommendBuckets = %d", m)
	}
	if e := ccf.BitEfficiency(1000, 100, 0.01); e <= 0 {
		t.Fatalf("BitEfficiency = %v", e)
	}
}

func TestPredicateFilterPublic(t *testing.T) {
	f, err := ccf.New(ccf.Params{Variant: ccf.Bloom, NumAttrs: 1, Capacity: 1024, BloomBits: 32})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if err := f.Insert(k, []uint64{k % 4}); err != nil {
			t.Fatal(err)
		}
	}
	view, err := f.PredicateFilter(ccf.And(ccf.Eq(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(2); k < 100; k += 4 {
		if !view.Contains(k) {
			t.Fatalf("view lost key %d", k)
		}
	}
	if view.SizeBits() >= f.SizeBits() {
		t.Fatal("key view should be smaller than the full filter")
	}
}

func TestMarshalPublicRoundTrip(t *testing.T) {
	f, err := ccf.New(ccf.Params{Variant: ccf.Mixed, NumAttrs: 1, Capacity: 512, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := f.Insert(k, []uint64{k % 9}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g ccf.Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if !g.Query(k, ccf.And(ccf.Eq(0, k%9))) {
			t.Fatalf("round-trip false negative %d", k)
		}
	}
}
