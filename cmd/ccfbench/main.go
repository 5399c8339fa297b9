// Command ccfbench regenerates the paper's tables and figures, and
// carries the two daemon smoke checks CI runs against a live ccfd.
//
// Usage:
//
//	ccfbench [-scale 0.01] [-seed 1] [-runs 5] [-quick] <experiment>...
//	ccfbench -validate-metrics http://127.0.0.1:8437/metrics
//	ccfbench -wire-check 127.0.0.1:8438 [-wire-http http://127.0.0.1:8437]
//
// Experiments: table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig7 fig8
// fig9 fig10 aggregate all. Output is printed as aligned text tables.
//
// -validate-metrics scrapes a running daemon's /metrics endpoint and
// fails (exit 1) on malformed Prometheus exposition or a missing
// required metric family — CI's observability smoke check.
//
// -wire-check round-trips the binary wire protocol against a running
// daemon's raw-TCP listener (insert, closed-loop query, pipelined
// queries) and optionally cross-checks the content-negotiated HTTP
// binary path — CI's wire-protocol smoke check.
//
// The daemon's serving performance is measured by the repository's
// benchmark, perfbench/run.sh, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ccf/internal/experiments"
	"ccf/internal/simd"
)

var runners = map[string]func(experiments.Config) error{
	"table1":    wrap(experiments.Table1),
	"table2":    wrap(experiments.Table2),
	"table3":    wrap(experiments.Table3),
	"fig2":      wrap(experiments.Fig2),
	"fig3":      wrap(experiments.Fig3),
	"fig4":      wrap(experiments.Fig4),
	"fig5":      wrap(experiments.Fig5),
	"fig6":      wrap(experiments.Fig6),
	"fig7":      wrap(experiments.Fig7),
	"fig8":      wrap(experiments.Fig8),
	"fig9":      wrap(experiments.Fig9),
	"fig10":     wrap(experiments.Fig10),
	"aggregate": wrap(experiments.Aggregate),
	"ablations": wrap(experiments.Ablations),
	"export":    wrap(experiments.ExportCounts),
}

// order fixes the sequence for "all".
var order = []string{
	"table2", "table3", "table1", "fig2", "fig3", "fig4", "fig5",
	"fig6", "fig7", "fig8", "fig9", "fig10", "aggregate", "ablations",
}

func wrap[T any](fn func(experiments.Config) (T, error)) func(experiments.Config) error {
	return func(cfg experiments.Config) error {
		_, err := fn(cfg)
		return err
	}
}

func main() {
	scale := flag.Float64("scale", 0.01, "synthetic IMDB scale factor in (0,1]")
	seed := flag.Int64("seed", 1, "random seed for data, workload and hashing")
	runs := flag.Int("runs", 5, "repetitions for the multiset experiments (paper: 20)")
	quick := flag.Bool("quick", false, "trim parameter grids for a fast pass")
	validateMetricsURL := flag.String("validate-metrics", "", "scrape this /metrics URL, fail on malformed exposition or missing families, and exit")
	wireCheckAddr := flag.String("wire-check", "", "round-trip the binary wire protocol against this host:port (raw TCP) and exit")
	wireCheckHTTP := flag.String("wire-http", "", "with -wire-check, also cross-check binary frames on this HTTP base URL (e.g. http://127.0.0.1:8437)")
	wireCheckFilter := flag.String("wire-filter", "smoke", "filter name for -wire-check")
	wireCheckAttrs := flag.Int("wire-attrs", 2, "attribute count of the -wire-check filter")
	probeEngine := flag.String("probe-engine", "auto", "batch probe engine: auto, scalar, or an explicit kernel name (avx2)")
	flag.Usage = usage
	flag.Parse()

	if err := simd.SetEngine(*probeEngine); err != nil {
		fmt.Fprintf(os.Stderr, "ccfbench: %v\n", err)
		os.Exit(2)
	}

	if *validateMetricsURL != "" {
		if err := validateMetrics(os.Stdout, *validateMetricsURL); err != nil {
			fmt.Fprintf(os.Stderr, "ccfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *wireCheckAddr != "" {
		if err := wireCheck(os.Stdout, *wireCheckAddr, *wireCheckHTTP, *wireCheckFilter, *wireCheckAttrs); err != nil {
			fmt.Fprintf(os.Stderr, "ccfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	cfg := experiments.Config{
		Scale: *scale, Seed: *seed, Runs: *runs, Quick: *quick, W: os.Stdout,
	}
	for _, name := range args {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "ccfbench: unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		if err := run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ccfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: ccfbench [flags] <experiment>...\n\nexperiments:\n")
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	fmt.Fprintf(os.Stderr, "  all (runs every experiment)\n\nflags:\n")
	flag.PrintDefaults()
}
