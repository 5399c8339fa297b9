package main

import (
	"fmt"
	"strings"
)

// step is one rung of a cost ledger, bottom up. Through-steps are
// measured by calling through that layer, so their ns/key already
// includes every layer below. Beside-steps (the client's codec) are
// measured on their own and add to the stack below them.
type step struct {
	layer   string
	nsKey   float64
	through bool
}

// ledgerRow is one layer's cost: its delta from the layer below.
type ledgerRow struct {
	layer      string
	cumulative float64
	delta      float64
}

// ledger turns bottom-up measurements into per-layer deltas and the
// residue left between the top of the stack and what the client
// observed. The deltas plus the residue sum to observed by construction.
func ledger(steps []step, observed float64) (rows []ledgerRow, residue float64) {
	cum := 0.0
	for _, s := range steps {
		prev := cum
		if s.through {
			cum = s.nsKey
		} else {
			cum += s.nsKey
		}
		rows = append(rows, ledgerRow{layer: s.layer, cumulative: cum, delta: cum - prev})
	}
	return rows, observed - cum
}

// formatLedger renders the ledger as text lines.
func formatLedger(workload string, rows []ledgerRow, residue, observed float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ledger %s (ns/key)\n", workload)
	fmt.Fprintf(&b, "  %-28s %12s %12s\n", "layer", "cumulative", "delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %12.1f %12.1f\n", r.layer, r.cumulative, r.delta)
	}
	fmt.Fprintf(&b, "  %-28s %12s %12.1f\n", "residue", "", residue)
	fmt.Fprintf(&b, "  %-28s %12.1f\n", "client observed", observed)
	return b.String()
}

// crossCheck compares a ledger figure with the daemon's own phase
// attribution and returns a flag line when they disagree by more than
// factor in either direction.
func crossCheck(what string, ledgerNs, phaseNs, factor float64) (string, bool) {
	if ledgerNs <= 0 || phaseNs <= 0 {
		return fmt.Sprintf("check %s: ledger %.0f ns, daemon phase %.0f ns: not comparable", what, ledgerNs, phaseNs), false
	}
	r := ledgerNs / phaseNs
	if r > factor || r < 1/factor {
		return fmt.Sprintf("FLAG %s: ledger %.0f ns vs daemon phase %.0f ns (x%.2f, beyond x%.0f)", what, ledgerNs, phaseNs, r, factor), true
	}
	return fmt.Sprintf("check %s: ledger %.0f ns vs daemon phase %.0f ns (x%.2f)", what, ledgerNs, phaseNs, r), false
}
