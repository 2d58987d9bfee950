// Command fgbench is the FloodGuard benchmark: it runs one named
// workload against the default partitioned rtc.Engine (one shard),
// with the bundled l2_learning controller on its own goroutine, and
// prints every metric by name and unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 a separately traced run reports the per-layer ones.
//
//	go run . --workload flood --seed 1 --seconds 10 --trace 0
//
// NOTES.md says why each workload exists, which layer metric should
// move which end-to-end metric, and records the first baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name, value, unit})
}

// result is the run's verdict: outputs checked, operations counted.
type result struct {
	attempted, failed uint64
	failures          []string
	metrics           metrics
	info              []string // human-readable extras printed before the result
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	// One P for the whole system under test (producer, shard, cache
	// stage, controller). With more, the shard parks and is woken on
	// another CPU, and on a VM that wake-up costs tens of microseconds
	// some runs and nothing in others: latency and capacity come out
	// bimodal. On one P every figure is a per-CPU cost.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: forward, flood or synflood")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "open-loop measurement length in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "fgbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *traced)
		return 2
	}
	fmt.Printf("fgbench workload=%s seed=%d seconds=%g trace=%d\n", sp.name, *seed, *seconds, *traced)
	fmt.Println(machine(*seed))
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(sp, *seed, *seconds)
	} else {
		res, err = runPlain(sp, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgbench: %v\n", err)
		return 1
	}
	for _, line := range res.info {
		fmt.Println(line)
	}
	for _, m := range res.metrics {
		fmt.Printf("metric %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, f := range res.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	out := map[string]any{
		"correct":   len(res.failures) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   jsonMetrics(res.metrics),
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

func jsonMetrics(ms metrics) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// satSeconds is the length of each closed-loop phase of a traced run.
func satSeconds(seconds float64) float64 { return 0.3 * seconds }

// segments is how many fresh rigs share a run's open-loop time. Tail
// latency under flow_mod churn differs between otherwise identical
// rigs (heap layout of the rule list, goroutine phase), so each latency
// figure is the median over segments of a median over windows.
const segments = 4

// setupBudget: while the timed set-ups total less than this, a run
// times extra ones (up to maxSetups), so that a cheap set-up is still
// timed over a long enough stretch. setup_s is the median of them all.
const (
	setupBudget = 1.5 // seconds
	maxSetups   = 200
)

// fwdWindow is the forwarding-latency quantile window. It is short next
// to the gap between microflow cache resets, so the median window shows
// the steady state and a reset burst moves only the window it lands in
// (flowtable.micro_resets and rtc.hist_p99_us report the bursts).
const fwdWindow = 500 * time.Millisecond

// segOut is one open-loop segment's figures.
type segOut struct {
	fwdP50, fwdP99         float64 // ns
	setP50, setP75, setP99 float64 // ns
	offered, lost          uint64  // benign
	lateReplays            uint64  // replays after the controller stopped
	lat                    setupLat
	o                      *runOut
}

// runPlain measures the end-to-end metrics, untraced.
func runPlain(sp *spec, seed int64, seconds float64) (*result, error) {
	segSec := seconds / segments
	targets := targetsFor(sp, segSec)
	var setups []float64
	newRig := func() (*rig, error) {
		// A set-up is timed after a full collection with the collector
		// held off, so the time is the set-up's own work: otherwise a
		// collection lands in it or not depending on the garbage earlier
		// segments left, and the same set-up took 1.8 ms in one run and
		// 2.6 ms in the next.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		r, err := setup(sp, seed, targets)
		el := time.Since(t0)
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, el.Seconds())
		return r, nil
	}
	res := &result{}
	var segs []segOut
	for i := 0; i < segments; i++ {
		r, err := newRig()
		if err != nil {
			return nil, err
		}
		o := openLoop(r, segSec)
		checkRun(res, r, o, true)
		lat := setupLatencies(r, o)
		offered := o.tally.offered[kBenign] + o.tally.offered[kNewFlow] + o.tally.offered[kSYN]
		segs = append(segs, segOut{
			fwdP50:  windowedQuantile(o.fwdLat, 0.50, fwdWindow),
			fwdP99:  windowedQuantile(o.fwdLat, 0.99, fwdWindow),
			setP50:  windowedQuantile(lat.ok, 0.50, lat.window),
			setP75:  windowedQuantile(lat.ok, 0.75, lat.window),
			setP99:  windowedQuantile(lat.ok, 0.99, lat.window),
			offered: offered,
			lost:    o.tally.offered[kBenign] - o.tally.accepted[kBenign] + lat.failed,
			lat:     lat,
			o:       o,

			lateReplays: r.ctl.late.Load(),
		})
	}
	for len(setups) < maxSetups && sum(setups) < setupBudget {
		if _, err := newRig(); err != nil {
			return nil, err
		}
	}
	segMedian := func(f func(s segOut) float64) float64 {
		xs := make([]float64, len(segs))
		for i, s := range segs {
			xs[i] = f(s)
		}
		return median(xs)
	}
	res.metrics.add("setup_s", median(setups), "s")
	// Only the set-up p75 held still across ten seeds on a 2-CPU VM; the
	// forwarding latency falls into a fast or a slow mode per run, a
	// third apart (NOTES.md has the spreads). The other quantiles are printed below,
	// and the traced run reports them per layer.
	setP50 := segMedian(func(s segOut) float64 { return s.setP50 })
	setP99 := segMedian(func(s segOut) float64 { return s.setP99 })
	res.metrics.add("flow_setup_p75_us", segMedian(func(s segOut) float64 { return s.setP75 })/1e3, "us")
	res.metrics.add("mem_peak_mb", peakRSSMB(), "MB")

	var failed, attempts uint64
	for _, s := range segs {
		res.attempted += s.offered
		res.failed += s.lost
		failed += s.lat.failed
		attempts += s.lat.attempts
		o := s.o
		res.info = append(res.info, fmt.Sprintf(
			"segment fwd_p50=%.3fus fwd_p99=%.3fus setup_p50=%.3fus setup_p99=%.3fus hist_p50=%.3fus hist_p99=%.3fus packets=%d misses=%d replayed=%d late_replays=%d cookie_fails=%d syn_retx=%d",
			s.fwdP50/1e3, s.fwdP99/1e3, s.setP50/1e3, s.setP99/1e3, float64(o.snap.P50)/1e3, float64(o.snap.P99)/1e3,
			o.tally.total, o.snap.Misses, o.snap.Replayed, s.lateReplays, o.guard.CookieFails, o.tally.offered[kSYNRetx]))
	}
	lat := segs[0].lat
	loss := ratio(res.failed, res.attempted)
	res.info = append(res.info,
		fmt.Sprintf("named fwd_lat_p50_us=%.6g us fwd_lat_p99_us=%.6g us flow_setup_p50_us=%.6g us flow_setup_p99_us=%.6g us (median over segments)",
			segMedian(func(s segOut) float64 { return s.fwdP50 })/1e3, segMedian(func(s segOut) float64 { return s.fwdP99 })/1e3,
			setP50/1e3, setP99/1e3),
		fmt.Sprintf("setup_runs_s %s", joinFloats(setups)),
		fmt.Sprintf("named benign_loss=%.6g ratio (%d of %d benign packets, flows and handshakes lost)", loss, res.failed, res.attempted),
		fmt.Sprintf("named %s=%d count of %d (%s)", lat.failName, failed, attempts, lat.what),
	)
	if sp.newFlowPS > 0 {
		res.info = append(res.info, fmt.Sprintf("named flow_setup_p50_ms=%.6g ms flow_setup_p99_ms=%.6g ms", setP50/1e6, setP99/1e6))
	}
	if sp.handshakePS > 0 {
		res.info = append(res.info, fmt.Sprintf("named handshake_p50_us=%.6g us handshake_p99_us=%.6g us", setP50/1e3, setP99/1e3))
	}
	return res, nil
}

// setupLat is the workload's control transaction: a decoy flow_mod's
// Apply (forward), a new flow's first packet until its rule is applied
// (flood), or a handshake's SYN until its cookie ACK reaches the
// controller (synflood).
type setupLat struct {
	ok               []sample
	failed, attempts uint64
	failName, what   string
	window           time.Duration // quantile window holding ~3000 samples
}

func setupLatencies(r *rig, o *runOut) setupLat {
	rate := r.sp.setupRate()
	if rate == 0 {
		return setupLat{ok: o.decoyLat, attempts: o.decoyMods, failed: o.decoyErrs,
			failName: "decoy_apply_fail", what: "decoy flow_mod Apply round trips",
			window: windowFor(r.sp.decoyModsPS)}
	}
	l := setupLat{failName: "flow_setup_fail", what: "new flow first packet to rule applied", window: windowFor(rate)}
	if r.sp.handshakePS > 0 {
		l.failName, l.what = "handshake_fail", "SYN due to cookie ACK at the controller"
	}
	for t := 0; t < o.targets; t++ {
		d, e := r.due[t].Load(), r.done[t].Load()
		if d == 0 {
			continue
		}
		l.attempts++
		if e <= 0 || e-d > int64(setupDeadline) {
			l.failed++
			continue
		}
		l.ok = append(l.ok, sample{at: d, ns: float64(e - d)})
	}
	return l
}

// checkRun applies the correctness checks to one phase. Counters are
// read only after Engine.Stop, when they are exact.
func checkRun(res *result, r *rig, o *runOut, open bool) {
	phase := "sat"
	if open {
		phase = "open"
	}
	s := o.snap
	acc := o.tally.total
	res.check(s.Processed == acc, "%s: accepted %d != processed %d", phase, acc, s.Processed)
	res.check(s.Forwarded+s.Misses == s.Processed, "%s: forwarded %d + misses %d != processed %d", phase, s.Forwarded, s.Misses, s.Processed)
	res.check(s.Misses == s.Cache.Enqueued+s.CacheDrops+s.SynAcked+s.GuardDropped,
		"%s: misses %d != dpcache ingested %d + ring drops %d + syn-acked %d + guard-dropped %d",
		phase, s.Misses, s.Cache.Enqueued, s.CacheDrops, s.SynAcked, s.GuardDropped)
	var applyErrs uint64
	for _, sh := range s.Shards {
		applyErrs += sh.ApplyErrs
	}
	res.check(applyErrs == 0 && r.ctl.applyErrs == 0 && o.decoyErrs == 0,
		"%s: apply errors: shard %d, controller %d, decoy %d", phase, applyErrs, r.ctl.applyErrs, o.decoyErrs)
	res.check(r.ctl.wrongPort == 0, "%s: %d l2_learning rules output to the wrong port", phase, r.ctl.wrongPort)
	if r.sp.name == "forward" {
		res.check(s.Misses == 0, "%s: forward saw %d misses", phase, s.Misses)
	}
	if r.sp.tcpGuard {
		res.check(r.synReplays == 0, "%s: %d SYN replays reached the controller", phase, r.synReplays)
		res.check(o.guard.Watermark <= o.guard.EntryBudget, "%s: connection peak %d over budget %d", phase, o.guard.Watermark, o.guard.EntryBudget)
		res.check(r.synackDrops.Load() == 0, "%s: %d benign SYN-ACKs lost before the producer", phase, r.synackDrops.Load())
	}
	if open {
		// Every benign Zipf packet hits an installed rule, and nothing
		// else does: set-up traffic always targets a host with no rule.
		res.check(s.Forwarded == o.tally.accepted[kBenign], "%s: forwarded %d != benign accepted %d", phase, s.Forwarded, o.tally.accepted[kBenign])
	}
}

// sample is one latency observation stamped with its start (mono).
type sample struct {
	at int64
	ns float64
}

// windowFor is a quantile window long enough to hold about 3000 samples
// at the given rate (a p99 with 30 beyond it), and at least a second.
func windowFor(perSec float64) time.Duration {
	return max(time.Second, time.Duration(3000/perSec*float64(time.Second)))
}

// windowedQuantile cuts the samples into consecutive windows of the
// given length by start time, takes the q-quantile in each window with
// at least minWindowSamples, and returns the median over windows. A host
// stall that lands in one window moves that window's tail, not the
// reported figure. With no full window it falls back to all samples.
func windowedQuantile(xs []sample, q float64, window time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]sample(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	var per []float64
	var cur []float64
	end := sorted[0].at + int64(window)
	flush := func() {
		if len(cur) >= minWindowSamples {
			per = append(per, quantile(cur, q))
		}
		cur = cur[:0]
	}
	for _, x := range sorted {
		for x.at >= end {
			flush()
			end += int64(window)
		}
		cur = append(cur, x.ns)
	}
	flush()
	if len(per) == 0 {
		all := make([]float64, len(xs))
		for i, x := range xs {
			all[i] = x.ns
		}
		return quantile(all, q)
	}
	return median(per)
}

// minWindowSamples keeps a window's p99 at least ten samples from its
// maximum, and drops the short trailing window.
const minWindowSamples = 500

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, ",")
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// machine describes where the numbers came from.
func machine(seed int64) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("FGBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	b, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpu, "commit": commit, "seed": seed,
	})
	return "machine " + string(b)
}

// traceDir is where traced runs write their spans, inside the build
// directory the benchmark already owns.
var traceDir = filepath.Join(".bench_build", "trace")
