// Command perfbench is the repository's end-to-end benchmark. It runs a
// ccfd built from the same checkout as a child process on loopback,
// drives one named workload against it from this process, checks every
// answer against ground truth, and prints the metrics BENCHMARK.json
// names: the end-to-end metrics with -trace 0, and with -trace 1 the
// per-layer ledger, which replays the recorded requests into each
// layer's public functions in-process, bottom up.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload pushdown --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any correctness violation (a
// false negative, a result count that differs from the key count, an
// acked row lost across a restart) or a workload whose layers were not
// exercised exits non-zero without that line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart stamps progress lines.
var processStart = time.Now()

// env is what every workload needs from the command line.
type env struct {
	root    string        // checkout root
	ccfd    string        // ccfd binary built from the checkout
	work    string        // per-run scratch directory under .bench_build
	seed    int64         // workload seed; ccfd sees only generated inputs
	measure time.Duration // length of the measured phase
	trace   bool          // per-layer run instead of the end-to-end run
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: "+format+"\n", append([]any{time.Since(processStart).Seconds()}, args...)...)
}

// report is one run's outcome.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	provenance        map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, provenance: map[string]any{}}
}

// violation is a correctness failure: the run stops and records nothing.
type violation struct{ msg string }

func (v *violation) Error() string { return "correctness violation: " + v.msg }

func violationf(format string, args ...any) error {
	return &violation{fmt.Sprintf(format, args...)}
}

var workloads = map[string]func(*env) (*report, error){
	"pushdown":   runPushdown,
	"ingest":     runIngest,
	"json-small": runJSONSmall,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: pushdown, ingest or json-small")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the per-layer ledger instead of the end-to-end metrics")
	root := fs.String("root", ".", "checkout root")
	ccfd := fs.String("ccfd", "", "ccfd binary built from the checkout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || *ccfd == "" || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("need -seconds >= 1, -ccfd and -trace 0|1")
	}
	cat, err := loadCatalogue(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	// The load generator shares the box with the daemon: at most two
	// cores, as the workloads' connection counts assume.
	runtime.GOMAXPROCS(2)

	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{
		root: *root, ccfd: *ccfd, work: work, seed: *seed,
		measure: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
	}
	rep, err := fn(e)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	want := cat.endToEnd
	if e.trace {
		want = cat.perLayer
	}
	out, err := metricsFor(want, rep.metrics)
	if err != nil {
		return err
	}
	prov := provenance(e, *workload)
	for k, v := range rep.provenance {
		prov[k] = v
	}
	rec, _ := json.Marshal(map[string]any{"record": prov})
	fmt.Println(string(rec))
	printTable(want, rep.metrics)
	final, err := json.Marshal(map[string]any{
		"correct": true, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

// metricDef is one metric as BENCHMARK.json names it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type catalogue struct{ endToEnd, perLayer []metricDef }

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetricName reports whether name and unit follow BENCHMARK.json's
// naming rules.
func validMetricName(name, unit string) bool {
	return nameRE.MatchString(name) && unitRE.MatchString(unit)
}

func loadCatalogue(path string) (*catalogue, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, f.EndToEnd...), f.PerLayer...) {
		if !validMetricName(m.Name, m.Unit) || seen[m.Name] {
			return nil, fmt.Errorf("%s: invalid or repeated metric %q (unit %q)", path, m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	return &catalogue{endToEnd: f.EndToEnd, perLayer: f.PerLayer}, nil
}

// metricsFor shapes the measured values into the result object, failing
// if a catalogued metric was not measured or is not a finite number.
func metricsFor(want []metricDef, got map[string]float64) (map[string]any, error) {
	out := make(map[string]any, len(want))
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return nil, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	return out, nil
}

func printTable(want []metricDef, got map[string]float64) {
	for _, m := range want {
		fmt.Printf("%-40s %16.6g %s\n", m.Name, got[m.Name], m.Unit)
	}
	var extra []string
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
	}
	for k := range got {
		if !listed[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("%-40s %16.6g (not catalogued)\n", k, got[k])
	}
}

// provenance names what produced a record: the code, the box and the
// run's own settings.
func provenance(e *env, workload string) map[string]any {
	sha := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	gov, _ := exec.Command("go", "env", "GOVERSION").Output()
	return map[string]any{
		"workload":   workload,
		"seed":       e.seed,
		"trace":      e.trace,
		"git_sha":    sha,
		"date":       time.Now().UTC().Format(time.RFC3339),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": strings.TrimSpace(string(gov)),
		"goarch":     runtime.GOARCH,
		"transport":  "loopback",
		"seconds":    e.measure.Seconds(),
	}
}
