package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one ccfd serve child process on loopback.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	exec     time.Time     // when the process was started
	ready    time.Time     // when /readyz first answered 200
	done     chan struct{} // closed once the process has been reaped
	waitErr  error         // the reaped process's exit status

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var (
	httpAddrRE = regexp.MustCompile(`serving on (\S+)`)
	wireAddrRE = regexp.MustCompile(`wire protocol serving.* addr=(\S+)`)
)

// httpc is the client for control requests (create, readiness, metrics).
var httpc = &http.Client{Timeout: 60 * time.Second}

// startDaemon execs `ccfd serve` on ephemeral loopback ports with extra
// flags, then waits for /readyz 200. Every filter route is gated on that:
// before readiness a durable daemon's routes may answer without the store.
func startDaemon(e *env, extra ...string) (*daemon, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0"}, extra...)
	d := &daemon{cmd: exec.Command(e.ccfd, args...), done: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	addrs := make(chan [2]string, 1)
	d.exec = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ccfd: %w", err)
	}
	go d.readLog(stderr, addrs)
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()

	select {
	case a := <-addrs:
		d.httpAddr, d.wireAddr = a[0], a[1]
	case <-d.done:
		return nil, fmt.Errorf("ccfd exited before listening: %v: %s", d.waitErr, d.lastLines())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("ccfd did not report its listen addresses")
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := httpc.Get(d.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Now()
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("ccfd not ready after 120s: %s", d.lastLines())
		}
		sleepUntil(time.Now().Add(250 * time.Microsecond))
	}
}

// readLog scans the daemon's stderr for its listen addresses and keeps
// the last lines.
func (d *daemon) readLog(r io.Reader, addrs chan<- [2]string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var httpAddr, wireAddr string
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
		if m := httpAddrRE.FindStringSubmatch(line); m != nil {
			httpAddr = m[1]
		}
		if m := wireAddrRE.FindStringSubmatch(line); m != nil {
			wireAddr = m[1]
		}
		if !sent && httpAddr != "" && wireAddr != "" {
			addrs <- [2]string{httpAddr, wireAddr}
			sent = true
		}
	}
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

func (d *daemon) url(path string) string { return "http://" + d.httpAddr + path }

// stop sends SIGTERM (the graceful drain) and waits for the process.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		if d.waitErr != nil {
			return fmt.Errorf("ccfd drain: %v: %s", d.waitErr, d.lastLines())
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("ccfd did not drain within 60s")
	}
}

// kill stops the process hard, if it still runs, and reaps it.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.done
}

// cpu returns the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz).
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMiB returns VmHWM from /proc/<pid>/status in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// putJSON sends a control request and fails on a non-2xx answer.
func (d *daemon) putJSON(method, path string, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(method, d.url(path), bytes.NewReader(raw))
	if err != nil {
		return err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, msg)
	}
	return nil
}

// getJSON decodes a GET response.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := httpc.Get(d.url(path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// promSample is one exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed /metrics exposition.
type scrape []promSample

func (d *daemon) scrape() (scrape, error) {
	resp, err := httpc.Get(d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// parseProm parses the Prometheus text format's sample lines.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of a family whose labels include match.
func (s scrape) sum(name string, match ...string) float64 {
	t := 0.0
	for _, x := range s {
		if x.name == name && x.has(match) {
			t += x.value
		}
	}
	return t
}

func (x promSample) has(match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if x.labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// label returns a label value of the first series of a family.
func (s scrape) label(name, key string) string {
	for _, x := range s {
		if x.name == name {
			return x.labels[key]
		}
	}
	return ""
}

// quantile interpolates a histogram family's quantile.
func (s scrape) quantile(name string, q float64, match ...string) float64 {
	var bs []bucket
	for _, x := range s {
		if x.name == name+"_bucket" && x.has(match) {
			le, err := strconv.ParseFloat(x.labels["le"], 64)
			if err == nil {
				bs = append(bs, bucket{le: le, count: x.value})
			}
		}
	}
	return histQuantile(bs, q)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// clientCPU returns this process's user+system CPU time.
func clientCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the box's total and stolen CPU time, in clock ticks,
// from /proc/stat. Steal is time the hypervisor ran something else
// while this box's CPUs were runnable.
func hostCPU() (total, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
