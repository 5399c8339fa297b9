// Package ccf implements Conditional Cuckoo Filters (Ting & Cole, SIGMOD
// 2021): approximate set-membership sketches that support equality
// predicates on attribute columns.
//
// A conditional cuckoo filter (CCF) summarizes a dataset of rows
// (key, attributes...) and answers queries of the form "is there a row with
// key k whose attributes satisfy predicate P?" with no false negatives and
// a tunable false-positive rate. Unlike a Bloom or cuckoo filter — which
// can only answer "is k in the set?" — a CCF lets a pre-built filter be
// specialized by predicates at query time, enabling predicate pushdown
// across all tables of a join graph (§3 of the paper).
//
// # Quick start
//
//	f, err := ccf.New(ccf.Params{Variant: ccf.Chained, NumAttrs: 2, Capacity: 1 << 20})
//	if err != nil { ... }
//	// Insert rows of (movieID, roleID, companyType).
//	_ = f.Insert(movieID, []uint64{roleID, companyType})
//	// Does any row for this movie have roleID = 4?
//	match := f.Query(movieID, ccf.And(ccf.Eq(0, 4)))
//
// # Variants
//
// Four strategies trade space, false-positive rate, and duplicate-key
// robustness; see the Variant constants. Chained is the paper's primary
// contribution and the default: it stores attribute fingerprint vectors and
// handles arbitrarily many duplicate keys by chaining additional bucket
// pairs. Bloom stores one small Bloom filter per key; Mixed starts with
// vectors and converts to Bloom filters for heavy keys; Plain is the
// baseline that fails under duplicate skew.
//
// # Predicates
//
// Predicates are conjunctions of per-attribute conditions; each condition
// is an equality (Eq) or an in-list (In). Range predicates are supported by
// binning the column at insertion time (Binner) or by dyadic interval
// expansion (Dyadic); see those types.
//
// # Pre-built filters
//
// Filters serialize with MarshalBinary/UnmarshalBinary so they can be built
// once, stored, and shipped to query processors, the deployment model the
// paper targets. PredicateFilter extracts a key-only membership filter for
// a fixed predicate (Algorithm 2).
//
// # Serving
//
// For concurrent traffic, ShardedFilter stripes keys across
// independently locked shards with batched insert/query entry points; its
// default single shard guards one filter with one read-write lock. The
// ccfd daemon (cmd/ccfd) serves named sharded filters over HTTP/JSON and a
// binary TCP protocol.
package ccf

import (
	"ccf/internal/core"
	"ccf/internal/sampling"
)

// Variant selects the CCF's duplicate-handling and attribute-sketch
// strategy; see the package documentation.
type Variant = core.Variant

// Variant values.
const (
	// Plain is a multiset cuckoo filter with attribute fingerprint vectors
	// and no duplicate handling beyond the 2b pair capacity.
	Plain = core.VariantPlain
	// Chained uses attribute fingerprint vectors with the paper's chaining
	// technique (§6.2); the recommended default.
	Chained = core.VariantChained
	// Bloom uses a per-entry Bloom filter attribute sketch (§5.2).
	Bloom = core.VariantBloom
	// Mixed uses fingerprint vectors with Bloom conversion for heavy keys
	// (§6.1).
	Mixed = core.VariantMixed
)

// Params configures a Filter; zero fields take the paper's defaults
// (12-bit key fingerprints, 8-bit attribute fingerprints, d = 3, b = 2d for
// chained variants). See the field documentation on core.Params.
type Params = core.Params

// Filter is a Conditional Cuckoo Filter. It is not safe for concurrent
// mutation; see ShardedFilter for a synchronized one.
type Filter = core.Filter

// Cond is a single-attribute condition (equality or in-list).
type Cond = core.Cond

// Predicate is a conjunction of conditions; nil matches every row.
type Predicate = core.Predicate

// KeyView is a key-only membership filter extracted for a fixed predicate
// (Algorithm 2).
type KeyView = core.KeyView

// Binner converts range predicates to bin in-lists (§9.1).
type Binner = core.Binner

// Dyadic encodes values as dyadic intervals for range queries (§9.1).
type Dyadic = core.Dyadic

// Ladder is an elastically sized filter: an ordered list of levels with
// geometrically growing bucket counts, so a filter that outgrows its
// initial sizing opens a new level instead of returning ErrFull. See
// the README's "Elastic capacity" section.
type Ladder = core.Ladder

// LadderOptions is the elastic-capacity budget of a Ladder (and, via
// ShardOptions.AutoGrow, of every shard of a ShardedFilter).
type LadderOptions = core.LadderOptions

// NewLadder returns a one-level ladder configured by p with the growth
// budget of opts.
func NewLadder(p Params, opts LadderOptions) (*Ladder, error) { return core.NewLadder(p, opts) }

// Frozen is an immutable, bit-packed snapshot of a vector-variant filter
// with columnar attribute storage (§9); produce one with Filter.Freeze.
type Frozen = core.Frozen

// Errors returned by filter operations.
var (
	// ErrFull reports a failed cuckoo insertion; the filter is unchanged.
	ErrFull = core.ErrFull
	// ErrChainLimit reports a row discarded at the chain-length limit;
	// queries for it still return true.
	ErrChainLimit = core.ErrChainLimit
	// ErrAttrCount reports an attribute vector of the wrong length.
	ErrAttrCount = core.ErrAttrCount
	// ErrUnsupported reports an operation undefined for the variant.
	ErrUnsupported = core.ErrUnsupported
	// ErrNotFound reports a Delete that found no matching row.
	ErrNotFound = core.ErrNotFound
)

// New returns a filter configured by p.
func New(p Params) (*Filter, error) { return core.New(p) }

// Eq returns the equality condition attribute(attr) = v.
func Eq(attr int, v uint64) Cond { return core.Eq(attr, v) }

// In returns the in-list condition attribute(attr) ∈ vs.
func In(attr int, vs ...uint64) Cond { return core.In(attr, vs...) }

// And combines conditions into a conjunctive predicate.
func And(conds ...Cond) Predicate { return core.And(conds...) }

// NewBinner returns an equal-width binner over [lo, hi] with bins bins.
func NewBinner(lo, hi uint64, bins int) (*Binner, error) { return core.NewBinner(lo, hi, bins) }

// NewDyadic returns a dyadic-interval encoder starting at lo with levels
// levels.
func NewDyadic(lo uint64, levels int) (*Dyadic, error) { return core.NewDyadic(lo, levels) }

// PredictEntries bounds the number of occupied entries for a workload whose
// per-key distinct attribute-vector counts are given (Table 1 of the
// paper); use with RecommendBuckets to size a filter.
func PredictEntries(v Variant, multiplicities []int, p Params) int {
	return core.PredictEntries(v, multiplicities, p)
}

// RecommendBuckets sizes a table for the predicted entry count at the
// target load factor (§8).
func RecommendBuckets(predictedEntries, bucketSize int, targetLoad float64) uint32 {
	return core.RecommendBuckets(predictedEntries, bucketSize, targetLoad)
}

// BitEfficiency is the paper's Eq. 8 metric: sizeBits / (n·log₂(1/fpr)).
func BitEfficiency(sizeBits int64, n int, fpr float64) float64 {
	return core.BitEfficiency(sizeBits, n, fpr)
}

// EntryEstimator sizes a filter from a sample instead of a full pass: a
// two-level (bottom-k keys, per-key distinct vectors) sampling scheme
// estimating the Table 1 entry bounds (§10.4 of the paper).
type EntryEstimator = sampling.EntryEstimator

// NewEntryEstimator returns an estimator sampling up to k keys.
func NewEntryEstimator(k int, salt uint64) (*EntryEstimator, error) {
	return sampling.NewEntryEstimator(k, salt)
}
