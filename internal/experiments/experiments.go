// Package experiments regenerates every table and figure of the paper's
// evaluation (§7 Figure 2, §8 Figures 3–5 and Table 1, §10 Figures 6–10 and
// Tables 2–3, and the §10.6 aggregate numbers). Each experiment has one
// entry point that prints the same rows or series the paper reports and
// returns a structured result for programmatic checks.
//
// Absolute numbers need not match the paper — the dataset is synthetic and
// scaled — but the shape must: who wins, by what factor, and where the
// crossovers fall.
package experiments

import (
	"fmt"
	"io"
)

// Config controls an experiment run.
type Config struct {
	// Scale is the synthetic IMDB scale factor in (0, 1].
	Scale float64
	// Seed drives all data generation and hashing.
	Seed int64
	// Runs is the number of repetitions for the multiset experiments
	// (the paper averages over 20 runs).
	Runs int
	// Quick trims parameter grids for benchmarks and CI.
	Quick bool
	// W receives the printed tables; nil discards output.
	W io.Writer
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{Scale: 0.01, Seed: 1, Runs: 5}
}

// QuickConfig returns a trimmed configuration for benchmarks and tests.
func QuickConfig() Config {
	return Config{Scale: 0.002, Seed: 1, Runs: 2, Quick: true}
}

func (c *Config) setDefaults() error {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("experiments: scale %v outside (0,1]", c.Scale)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Runs <= 0 {
		c.Runs = 5
	}
	if c.W == nil {
		c.W = io.Discard
	}
	return nil
}

func (c *Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.W, format, args...)
}
