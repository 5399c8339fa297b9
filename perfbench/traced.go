package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ccf/internal/server"
	"ccf/internal/wire"
)

// traceFactor is how far a ledger figure may stray from the daemon's own
// phase attribution before the run flags it.
const traceFactor = 3

// transportReplay is how long each live transport replay runs at most.
const transportReplay = 500 * time.Millisecond

// liveFigures are what the traced run saw through the daemon.
type liveFigures struct {
	path         string  // the workload's transport: tcp_pipelined, tcp or http
	observed     float64 // client-observed ns/key in the traced phase
	keys         int64   // keys queried in the traced phase
	untracedRate float64 // keys/s (or service ns/key, see overheadFrac)
	tracedRate   float64
	daemonCPUKey float64
	daemonCPURow float64
	clientCPUKey float64
	latenessP99  float64
	scanNs       float64
	discarded    int64
	grows        float64
	cycles       int    // ingest cycles the counts below cover; they are reported per cycle
	sc           scrape // traced daemon at the end of its measured phase
	invalidated  float64
	store        storeFigures
}

// storeFigures are the durable daemon's own store figures (zero for an
// in-memory daemon).
type storeFigures struct {
	recoveryS, recordsReplayed, diskBytesPerRow float64
}

// snapshots fetches each filter's binary snapshot from the daemon.
func snapshots(d *daemon, defs []filterDef) error {
	for i := range defs {
		resp, err := httpc.Get(d.url("/filters/" + defs[i].name + "/snapshot"))
		if err != nil {
			return err
		}
		defs[i].snapshot, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("snapshot %s: %s", defs[i].name, resp.Status)
		}
	}
	return nil
}

// viewInvalidations sums the view caches' invalidation counters.
func viewInvalidations(d *daemon) (float64, error) {
	var st server.StatsResponse
	if err := d.getJSON("/stats", &st); err != nil {
		return 0, err
	}
	t := 0.0
	for _, f := range st.Filters {
		t += float64(f.ViewCache.Invalidations)
	}
	return t, nil
}

// transports replays recorded queries against the live daemon over each
// transport, one connection each, and returns ns/key for closed-loop
// TCP, pipelined TCP and JSON over HTTP.
func transports(d *daemon, qs []recQuery) (tcp, pipe, httpNs float64, err error) {
	var keys int64
	timed := func(fn func(q recQuery) error) (float64, error) {
		keys = 0
		start := time.Now()
		for _, q := range qs {
			if err := fn(q); err != nil {
				return 0, err
			}
			keys += int64(len(q.keys))
			if time.Since(start) > transportReplay {
				break
			}
		}
		return float64(time.Since(start)) / float64(keys), nil
	}
	c, err := wire.Dial(d.wireAddr, 10*time.Second)
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	if tcp, err = timed(func(q recQuery) error {
		res, err := c.Query(q.filter, q.pred, q.keys, q.viaView)
		if err == nil && len(res) != len(q.keys) {
			err = violationf("tcp result for %d keys, sent %d", len(res), len(q.keys))
		}
		return err
	}); err != nil {
		return 0, 0, 0, err
	}

	w, err := dialWire(d.wireAddr, pushdownDepth, nil, nil, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	defer w.close()
	pipe, err = pipelined(w, qs)
	if err != nil {
		return 0, 0, 0, err
	}

	hc := jsonClient()
	defer hc.CloseIdleConnections()
	httpNs, err = timed(func(q recQuery) error {
		body, err := json.Marshal(jsonQuery(q))
		if err != nil {
			return err
		}
		var resp server.QueryResponse
		if err := postJSON(hc, d.url("/filters/"+q.filter+"/query"), body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(q.keys) {
			return violationf("http result for %d keys, sent %d", len(resp.Results), len(q.keys))
		}
		return nil
	})
	return tcp, pipe, httpNs, err
}

// pipelined sends the recorded queries through one window of
// pushdownDepth requests and returns ns/key.
func pipelined(w *wconn, qs []recQuery) (float64, error) {
	var keys int64
	start := time.Now()
	recv := func() error {
		r, err := w.c.RecvResult()
		f := w.pop()
		if err != nil {
			return err
		}
		if r.N != f.n {
			return violationf("pipelined result for %d keys, sent %d", r.N, f.n)
		}
		return nil
	}
	for _, q := range qs {
		if len(w.pending) == w.depth {
			if err := recv(); err != nil {
				return 0, err
			}
		}
		w.push(0, len(q.keys), "")
		w.c.SendQuery(q.filter, q.pred, q.keys, q.viaView)
		if err := w.c.Flush(); err != nil {
			return 0, err
		}
		keys += int64(len(q.keys))
		if time.Since(start) > transportReplay {
			break
		}
	}
	for len(w.pending) > 0 {
		if err := recv(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(keys), nil
}

// layerMetrics assembles the per-layer metrics and the ledger from the
// in-process replay and the live figures, and writes the spans.
func layerMetrics(e *env, workload string, rep *report, lc *layerCosts, lv *liveFigures,
	tcp, pipe, httpNs float64, spans *spanLog) error {
	m := rep.metrics
	sc := lv.sc
	cycles := float64(max(lv.cycles, 1))
	m["core.probe_ns_per_key"] = lc.core
	m["core.insert_ns_per_row"] = lc.coreIns
	m["core.true_frac"] = lc.trueFrac
	m["core.load_factor"] = lc.loadFactor
	m["core.discarded_rows"] = float64(lv.discarded) / cycles
	m["core.ladder.probe_ns_per_key"] = lc.ladder
	m["core.ladder.delta_ns_per_key"] = lc.ladder - lc.core
	m["core.ladder.levels"] = lc.levels
	m["core.ladder.levels_walked"] = lc.levelsWalked
	m["shard.probe_ns_per_key"] = lc.shard
	m["shard.delta_ns_per_key"] = lc.shard - lc.ladder
	m["shard.insert_ns_per_row"] = lc.shardIns
	m["shard.seqlock_retries_per_mkey"] = ratio(sc.sum("ccfd_seqlock_retries_total")*1e6, float64(lv.keys))
	m["shard.seqlock_fallbacks_per_mkey"] = ratio(sc.sum("ccfd_seqlock_fallbacks_total")*1e6, float64(lv.keys))
	m["shard.grows"] = lv.grows / cycles
	m["store.insert_ns_per_row"] = lc.storeIns
	m["store.delta_ns_per_row"] = lc.storeIns - lc.shardIns
	m["store.wal_bytes_per_row"] = lc.walBytesPerRow
	m["store.frames_per_fsync"] = ratio(sc.sum("ccfd_wal_group_commit_frames_sum"), sc.sum("ccfd_wal_group_commit_frames_count"))
	m["store.fsync_p50_us"] = sc.quantile("ccfd_wal_fsync_seconds", 0.5) * 1e6
	m["store.fsync_p99_us"] = sc.quantile("ccfd_wal_fsync_seconds", 0.99) * 1e6
	m["store.checkpoints"] = sc.sum("ccfd_checkpoints_total") / cycles
	m["store.checkpoint_s"] = sc.sum("ccfd_checkpoint_seconds_sum") / cycles
	m["store.folds"] = sc.sum("ccfd_folds_completed_total") / cycles
	m["store.fold_s"] = sc.sum("ccfd_fold_last_seconds")
	m["store.recovery_s"] = lv.store.recoveryS
	m["store.records_replayed"] = lv.store.recordsReplayed
	m["store.disk_bytes_per_row"] = lv.store.diskBytesPerRow
	m["server.binary_ns_per_key"] = lc.serverBinary
	m["server.json_ns_per_key"] = lc.serverJSON
	m["server.binary_delta_ns_per_key"] = lc.serverBinary - lc.shard
	m["server.json_delta_ns_per_key"] = lc.serverJSON - lc.shard
	m["server.insert_ns_per_row"] = lc.serverIns
	m["server.allocs_per_request"] = lc.allocsPerReq
	hits, misses := sc.sum("ccfd_view_cache_hits_total"), sc.sum("ccfd_view_cache_misses_total")
	m["server.view_hit_frac"] = ratio(hits, hits+misses)
	m["server.view_invalidations"] = lv.invalidated
	m["server.shed_frac"] = ratio(sc.sum("ccfd_http_shed_total"), sc.sum("ccfd_trace_phase_seconds_count", "phase", "request"))
	m["wire.encode_ns_per_key"] = lc.wireEnc
	m["wire.decode_ns_per_key"] = lc.wireDec
	m["wire.bytes_per_key"] = lc.wireBytes
	m["server.json.client_ns_per_key"] = lc.jsonClient
	m["server.json.bytes_per_key"] = lc.jsonBytes
	m["server.tcp.delta_ns_per_key"] = tcp - (lc.serverBinary + lc.wireClient)
	m["server.tcp_pipelined.delta_ns_per_key"] = pipe - (lc.serverBinary + lc.wireClient)
	m["server.http.delta_ns_per_key"] = httpNs - (lc.serverJSON + lc.jsonClient)
	for _, p := range []string{"decode", "shard_probe", "encode", "wal_append", "fsync_wait", "queue"} {
		m["ccfd.trace."+p+"_p50_us"] = sc.quantile("ccfd_trace_phase_seconds", 0.5, "phase", p) * 1e6
	}
	m["ccfd.cpu_ns_per_key"] = lv.daemonCPUKey
	m["ccfd.cpu_ns_per_row"] = lv.daemonCPURow
	m["ccfd.trace_overhead_frac"] = 1 - ratio(lv.tracedRate, lv.untracedRate)
	m["client.cpu_ns_per_key"] = lv.clientCPUKey
	m["client.lateness_p99_us"] = lv.latenessP99
	m["joblight.scan_ns_per_row"] = lv.scanNs

	// The ledger: bottom up along the workload's own path.
	steps := []step{
		{"core", lc.core, true},
		{"core.ladder", lc.ladder, true},
		{"shard", lc.shard, true},
	}
	switch lv.path {
	case "http":
		steps = append(steps, step{"server (json)", lc.serverJSON, true},
			step{"server.json (client codec)", lc.jsonClient, false},
			step{"server.http", httpNs, true})
	case "tcp":
		steps = append(steps, step{"server (binary)", lc.serverBinary, true},
			step{"wire (client codec)", lc.wireClient, false},
			step{"server.tcp", tcp, true})
	default:
		steps = append(steps, step{"server (binary)", lc.serverBinary, true},
			step{"wire (client codec)", lc.wireClient, false},
			step{"server.tcp_pipelined", pipe, true})
	}
	rows, residue := ledger(steps, lv.observed)
	m["ledger.residue_ns_per_key"] = residue
	fmt.Print(formatLedger(workload, rows, residue, lv.observed))

	// Cross-check against the daemon's phase attribution, per request.
	reqs := sc.sum("ccfd_trace_phase_seconds_count", "phase", "request")
	perReq := func(phase string) float64 {
		return ratio(sc.sum("ccfd_trace_phase_seconds_sum", "phase", phase)*1e9, reqs)
	}
	keysPerReq := ratio(float64(lc.keys), float64(lc.queryRequests))
	var flags []string
	server := lc.serverBinary
	if lv.path == "http" {
		server = lc.serverJSON
	}
	for _, c := range []struct {
		what          string
		ledger, phase float64
	}{
		{"shard probe per request", lc.shard * keysPerReq, perReq("shard_probe") + perReq("view_probe")},
		{"server work beside the probe per request", (server - lc.shard) * keysPerReq,
			perReq("request") - perReq("shard_probe") - perReq("view_probe")},
	} {
		line, flagged := crossCheck(c.what, c.ledger, c.phase, traceFactor)
		fmt.Println(line)
		if flagged {
			flags = append(flags, line)
		}
	}
	rep.provenance["ledger_flags"] = strings.Join(flags, "; ")

	self := selfTimes(spans.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("span self time %-40s %10.3f ms\n", n, float64(self[n])/1e6)
	}
	return spans.write(filepath.Join(e.root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", workload, e.seed)))
}
