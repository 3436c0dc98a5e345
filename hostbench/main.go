// Command hostbench is the repository's host-plane benchmark: how fast
// this Go program simulates and serves, measured end to end and layer
// by layer, next to the virtual-time numbers it must leave untouched.
//
// Run it from the repository root:
//
//	bash hostbench/run.sh --workload drive-clean --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - drive-clean: one full stack (SSD512) on the scripted default city,
//     no executor hooks. Sensor synthesis and the perception nodes do
//     nearly all the host work.
//   - drive-fog-stall: scenario.RunWithEnv on the pinned gen-fog-stall
//     spec (SSD300): a clean leg plus a guarded, supervised,
//     fault-injected leg, so the fault, guard and supervision hooks run
//     on every publish, arrival and dispatch.
//   - fleet-hot: an in-process fleet.Service behind fleet.Handler on
//     loopback HTTP; two closed-loop clients submit warmed
//     builtin-scenario keys, so nearly every job is a cache hit and
//     admission, the result cache, /fleetz and HTTP do the work.
//
// The seed perturbs traffic and fault seeds, never a city layout; seed 1
// runs the program's own pinned seeds, whose outputs are checked against
// hashes pinned in pins.go. With --trace 0 the run prints the end-to-end
// metrics; with --trace 1 it makes an untraced and a traced run and
// prints the per-layer metrics, the tracing overhead and whether the
// traced run left the virtual plane identical. The last line of standard
// output is the JSON result; a readable table goes to standard error.
// --workload all runs the three workloads in turn, one result line each.
//
// Journal placement: every admission to a journaled fleet is fsynced,
// and the benchmark may write only inside the directory it runs from,
// whose disk made fsync latency, and with it fleet throughput, swing by
// a fifth between runs. The timed fleet epochs therefore run the fleet
// in memory; the traced run serves capped rounds on a journaled fleet
// under .bench_build/ and reports the journal's exact per-job counts,
// bytes and throughput as per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// metricDef is one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the program sees. Every
// workload reports every one: for the drives an operation is a 100 ms
// virtual slice and the virtual time is the simulated drive; for
// fleet-hot an operation is one job and the virtual time is the drive
// each served report covers.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_s_per_wall_s", "s/s"},
	{"allocs_per_sim_s", "count/s"},
	{"alloc_mb_per_sim_s", "MB/s"},
	{"live_heap_mb", "MB"},
	{"op_p50_ms", "ms"},
}

// perLayer lists the traced run's metrics, named <module>.<metric>.
// A layer that does not run on a workload reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sensor.lidar_scan_ms", "ms"},
		{"sensor.lidar_allocs", "count"},
		{"sensor.camera_capture_ms", "ms"},
		{"sensor.camera_allocs", "count"},
	}
	for _, n := range perceptionNodes {
		defs = append(defs,
			metricDef{"nodes." + n + ".host_ms", "ms"},
			metricDef{"nodes." + n + ".allocs", "count"},
			metricDef{"nodes." + n + ".calls", "count"})
	}
	return append(defs, []metricDef{
		{"hdmap.build_s", "s"},
		{"platform.self_ms_per_sim_s", "ms/s"},
		{"platform.callbacks", "count"},
		{"ros.published", "count"},
		{"ros.dropped", "count"},
		{"ros.pool_acquired", "count"},
		{"faults.publish_filter_ns", "ns"},
		{"guard.ingress_filter_ns", "ns"},
		{"supervise.callback_filter_ns", "ns"},
		{"guard.quarantined", "count"},
		{"supervise.restarts", "count"},
		{"vt.p99_ms", "ms"},
		{"vt.over_budget_frac", "frac"},
		{"fleet.jobs_per_s", "1/s"},
		{"fleet.handler_ms_p50", "ms"},
		{"fleet.handler_ms_p99", "ms"},
		{"fleet.fleetz_ms_p50", "ms"},
		{"fleet.fleetz_ms_p90", "ms"},
		{"fleet.client_self_ms_p50", "ms"},
		{"fleet.cache_hit_frac", "frac"},
		{"fleet.rejected", "count"},
		{"fleet.params_job_ok", "count"},
		{"fleet.heap_kb_per_job", "KB"},
		{"journal.jobs_per_s", "1/s"},
		{"journal.disk_kb_per_job", "KB"},
		{"journal.appends_per_job", "count"},
		{"journal.syncs_per_job", "count"},
		{"journal.compactions", "count"},
		{"journal.snapshot_kb", "KB"},
		{"journal.wal_kb", "KB"},
		{"runtime.peak_rss_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		// The host p99 of an operation is end to end, but it moved by up
		// to two fifths between runs of one seed on a shared 2-vCPU
		// machine, so it has no regression bound.
		{"op_p99_ms", "ms"},
		{"bench.tracing_overhead", "x"},
		{"bench.vt_identical", "count"},
		{"bench.failed_frac", "frac"},
	}...)
}()

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// outcome collects one workload run's verdicts and metrics.
type outcome struct {
	workload  string
	defs      []metricDef
	attempted int
	failed    int
	values    map[string]float64
	samples   map[string]int
}

func newOutcome(workload string, defs []metricDef) *outcome {
	return &outcome{workload: workload, defs: defs, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric measured over n samples. Setting a metric that
// is not in this run's catalog is a bug in the benchmark.
func (o *outcome) set(name string, v float64, n int) {
	for _, d := range o.defs {
		if d.name == name {
			o.values[name], o.samples[name] = v, n
			return
		}
	}
	panic("hostbench: metric " + name + " not in catalog")
}

// setPercentile records a percentile of samples, or leaves the metric
// at 0 with a note when too few samples lie beyond it.
func (o *outcome) setPercentile(name string, samples []float64, q float64) {
	v, ok := percentile(samples, q)
	if !ok {
		fmt.Fprintf(os.Stderr, "%s: %s not reported: %d samples leave fewer than %d beyond the %g quantile\n",
			o.workload, name, len(samples), minBeyond, q)
	}
	o.set(name, v, len(samples))
}

// fail counts a failed operation and says why on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", o.workload, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the readable table to standard error and the JSON result
// line to standard output. Per-layer metrics a workload's layers never
// set are reported as 0.
func (o *outcome) emit() error {
	res := jsonResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range o.defs {
		v := o.values[d.name]
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-16s %-40s %16.6g %-8s n=%d\n", o.workload, d.name, v, d.unit, o.samples[d.name])
	}
	fmt.Fprintf(os.Stderr, "%-16s attempted=%d failed=%d correct=%v\n", o.workload, o.attempted, o.failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// machine describes the host every result was measured on.
func machine() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]any{"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "cpu": cpu}
}

// heapSampler samples, every 10 ms of a timed phase, the live heap the
// garbage collector marked at its last cycle. The resident set moves
// with the collector's pacing and the scavenger, and a single peak
// moves with where a cycle lands in a burst of short-lived buffers;
// the median over the phase is the memory the program keeps.
type heapSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples in MB.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.samples
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

var workloads = []string{"drive-clean", "drive-fog-stall", "fleet-hot"}

func main() {
	workload := flag.String("workload", "", "drive-clean, drive-fog-stall, fleet-hot, or all")
	seed := flag.Uint64("seed", defaultSeed, "input seed (1 = the program's pinned seeds)")
	seconds := flag.Int("seconds", 20, "minimum wall seconds of timed work")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !slices.Contains(workloads, n) {
			fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q (have %s, all)\n", n, strings.Join(workloads, ", "))
			os.Exit(2)
		}
	}
	// Marshal cannot fail on strings and numbers.
	env, _ := json.Marshal(map[string]any{"machine": machine(), "seed": *seed, "seconds": *seconds, "trace": *traceFlag})
	fmt.Println(string(env))

	work := filepath.Join(".bench_build", fmt.Sprintf("hostbench-%d", os.Getpid()))
	code := 0
	for _, n := range names {
		if err := runWorkload(n, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, work); err != nil {
			fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", n, err)
			code = 1
			break
		}
	}
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: removing %s: %v\n", work, err)
	}
	os.Exit(code)
}

// runWorkload runs one workload and prints its result. An error means
// the benchmark itself could not run; failed operations are counted in
// the result instead.
func runWorkload(name string, seed uint64, seconds time.Duration, tracing bool, work string) error {
	defs := endToEnd
	if tracing {
		defs = perLayer
	}
	out := newOutcome(name, defs)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	var rec *recorder
	if tracing {
		rec = newRecorder()
	}
	var err error
	if name == "fleet-hot" {
		err = runFleet(out, seed, seconds, rec, work)
	} else {
		err = runDrive(out, name, seed, seconds, rec)
	}
	if err != nil {
		return err
	}
	if tracing {
		out.set("bench.failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), out.attempted)
		dir := filepath.Join(".bench_build", "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := rec.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", name, len(rec.spans), path)
	}
	for _, d := range out.defs {
		if _, ok := out.values[d.name]; !ok && !tracing {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
	}
	return out.emit()
}

// spanMS returns the durations of the spans with this name, in ms.
func spanMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64((s.End-s.Start).Nanoseconds())/1e6)
		}
	}
	return out
}
