package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/avstack"
	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/hdmap"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/world"
)

// Drive horizons are fixed in virtual time so every virtual-plane
// number repeats exactly for a seed. 105 s leaves 102 s after the 3 s
// warm-up: about 1020 worst-path frames, so the virtual p99 has ten
// frames beyond it, and 1050 slices of 100 ms for the host p99.
const driveHorizon = 105 * time.Second

// budgetMS is the paper's end-to-end latency budget.
const budgetMS = 100

// stepClock is a context whose Err records the wall clock. Stack.RunContext
// polls Err once before every 100 ms virtual slice, so the marks split a
// drive into per-slice host times without any change to the program.
type stepClock struct {
	context.Context
	marks []time.Time
}

func (c *stepClock) Err() error {
	c.marks = append(c.marks, time.Now())
	return nil
}

// phase is the host cost of one timed drive or fleet round.
type phase struct {
	wall    time.Duration
	allocs  uint64
	bytes   uint64
	gcs     uint32
	gcPause time.Duration
	// stepsMS holds the host milliseconds of each operation: a 100 ms
	// virtual slice for drives, one job for the fleet.
	stepsMS []float64
}

func (p *phase) add(q phase) {
	p.wall += q.wall
	p.allocs += q.allocs
	p.bytes += q.bytes
	p.gcs += q.gcs
	p.gcPause += q.gcPause
	p.stepsMS = append(p.stepsMS, q.stepsMS...)
}

// measureDrive runs one drive under a stepClock after a full GC and
// returns its wall time, allocation totals and per-slice host times.
func measureDrive(run func(ctx context.Context) error) (phase, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	clk := &stepClock{Context: context.Background()}
	t0 := time.Now()
	err := run(clk)
	end := time.Now()
	runtime.ReadMemStats(&m1)
	p := phase{
		wall:    end.Sub(t0),
		allocs:  m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		gcs:     m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
	marks := append(clk.marks, end)
	for i := 1; i < len(marks); i++ {
		p.stepsMS = append(p.stepsMS, float64(marks[i].Sub(marks[i-1]).Nanoseconds())/1e6)
	}
	return p, err
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// splitmix64 is the standard 64-bit finalizer, used to turn a
// benchmark seed into traffic and fault seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// defaultSeed reproduces the program's own pinned traffic and fault
// seeds; every other seed perturbs them. City layouts never change.
const defaultSeed = 1

func derive(base, seed uint64) uint64 {
	if seed == defaultSeed {
		return base
	}
	return base ^ splitmix64(seed)
}

// drive is one drive workload over one built environment.
type drive struct {
	cfg autoware.Config
	// spec is the chaos scenario for drive-fog-stall, nil for the
	// clean drive.
	spec *scenario.Spec
	scen *world.Scenario
	m    *hdmap.Map
	// simPerRun is the virtual time one timed run simulates.
	simPerRun time.Duration
}

func newDrive(name string, seed uint64) (*drive, error) {
	switch name {
	case "drive-clean":
		cfg := autoware.DefaultConfig(autoware.DetectorSSD512)
		cfg.Scenario.Seed = derive(cfg.Scenario.Seed, seed)
		return &drive{cfg: cfg, simPerRun: driveHorizon}, nil
	case "drive-fog-stall":
		spec, err := scenario.ByName("gen-fog-stall")
		if err != nil {
			return nil, err
		}
		w := *spec.World
		w.Seed = derive(w.Seed, seed)
		spec.World = &w
		spec.Seed = derive(spec.Seed, seed)
		cfg := autoware.DefaultConfig(autoware.DetectorSSD300)
		cfg.Scenario = w
		// Two legs: the clean baseline and the faulted drive.
		return &drive{cfg: cfg, spec: &spec, simPerRun: 2 * driveHorizon}, nil
	}
	return nil, fmt.Errorf("unknown drive workload %q", name)
}

// setup builds the world and HD map; for the clean drive it also
// assembles the stack, which RunWithEnv does inside the timed phase for
// the fog drive. It returns the map build time for hdmap.build_s.
func (d *drive) setup() (*autoware.Stack, time.Duration, error) {
	scen, err := world.BuildScenario(d.cfg.Scenario)
	if err != nil {
		return nil, 0, fmt.Errorf("building world: %w", err)
	}
	t := time.Now()
	m, err := hdmap.Build(scen, d.cfg.Map)
	if err != nil {
		return nil, 0, fmt.Errorf("building map: %w", err)
	}
	mapTime := time.Since(t)
	d.scen, d.m = scen, m
	if d.spec != nil {
		return nil, mapTime, nil
	}
	st, err := autoware.BuildWithMap(d.cfg, scen, m)
	return st, mapTime, err
}

// untraced is the output of one untraced timed run.
type untraced struct {
	phase
	hash string
	// res is the fog drive's result, kept to check the traced run.
	res *scenario.Result
}

// run performs one untraced timed run. st is a stack from setup for
// the clean drive (nil builds a fresh one outside the timing).
func (d *drive) run(st *autoware.Stack) (untraced, error) {
	if d.spec != nil {
		var res *scenario.Result
		p, err := measureDrive(func(ctx context.Context) error {
			var err error
			res, err = scenario.RunWithEnvContext(ctx, d.scen, d.m, *d.spec, d.cfg.Detector, driveHorizon)
			return err
		})
		if err != nil {
			return untraced{}, err
		}
		var rep bytes.Buffer
		res.WriteReport(&rep)
		return untraced{phase: p, hash: sha(rep.Bytes()), res: res}, nil
	}
	if st == nil {
		var err error
		if st, err = autoware.BuildWithMap(d.cfg, d.scen, d.m); err != nil {
			return untraced{}, err
		}
	}
	p, err := measureDrive(func(ctx context.Context) error { return st.RunContext(ctx, driveHorizon) })
	if err != nil {
		return untraced{}, err
	}
	return untraced{phase: p, hash: sha([]byte(st.Recorder.Fingerprint()))}, nil
}

// traced is the output of the traced run.
type traced struct {
	wall    time.Duration
	stacks  []*autoware.Stack
	shadow  []*nodeShadow
	hooks   hookTimers
	sensors *sensorStats
}

// runTraced repeats the untraced run with spans: a node shadow on every
// leg, timers on the outermost hooks, and a sensor pass at the stack's
// rates. The fog drive's legs are assembled from the same public
// attach calls RunWithEnv makes, in the same order.
func (d *drive) runTraced(rec *recorder) (*traced, error) {
	root := rec.add("drive", rec.now(), 0, -1)
	t := &traced{}
	legs := []bool{false}
	if d.spec != nil {
		legs = []bool{false, true}
	}
	start := time.Now()
	for _, faulted := range legs {
		st, err := d.buildLeg(faulted)
		if err != nil {
			return nil, err
		}
		t.hooks.wrap(st.Executor)
		sh, err := newNodeShadow(d.cfg, d.m, rec, root)
		if err != nil {
			return nil, err
		}
		sh.attach(st.Executor)
		if err := st.RunContext(context.Background(), driveHorizon); err != nil {
			return nil, err
		}
		t.stacks = append(t.stacks, st)
		t.shadow = append(t.shadow, sh)
	}
	t.wall = time.Since(start)
	rec.finish(root)
	sensors := rec.add("sensors", rec.now(), 0, -1)
	t.sensors = traceSensors(d.cfg, d.scen, driveHorizon, rec, sensors)
	rec.finish(sensors)
	return t, nil
}

// buildLeg assembles one stack. The faulted leg mirrors
// scenario.RunWithEnvContext: guard per spec, fault injector with the
// recorder as loss sink, then supervision and shedding.
func (d *drive) buildLeg(faulted bool) (*autoware.Stack, error) {
	cfg := d.cfg
	if !faulted {
		return autoware.BuildWithMap(cfg, d.scen, d.m)
	}
	spec := d.spec
	if len(spec.Watch) > 0 || spec.Sched != nil {
		return nil, fmt.Errorf("scenario %s: watch and sched legs are not traced", spec.Name)
	}
	cfg.Guard = spec.Guard
	st, err := autoware.BuildWithMap(cfg, d.scen, d.m)
	if err != nil {
		return nil, err
	}
	inj, err := faults.New(spec.Schedule())
	if err != nil {
		return nil, err
	}
	inj.SetLossRecorder(st.Recorder)
	inj.Attach(st.Executor, st.Bus)
	if spec.Supervise {
		if _, err := avstack.AttachDefaultSupervision(st, spec.Seed); err != nil {
			return nil, err
		}
	}
	if spec.ShedBudget > 0 {
		st.Executor.ShedBudget = spec.ShedBudget
	}
	return st, nil
}

// sameVirtual checks that the traced run reproduced the untraced run's
// virtual plane exactly: the whole fingerprint for the clean drive,
// every node and path summary of both legs for the fog drive.
func (d *drive) sameVirtual(u untraced, t *traced) error {
	if d.spec == nil {
		if got := sha([]byte(t.stacks[0].Recorder.Fingerprint())); got != u.hash {
			return fmt.Errorf("traced fingerprint %s differs from untraced %s", got[:12], u.hash[:12])
		}
		return nil
	}
	base, flt := t.stacks[0].Recorder, t.stacks[1].Recorder
	for _, ns := range u.res.Nodes {
		if base.NodeLatency(ns.Node) != ns.Baseline || flt.NodeLatency(ns.Node) != ns.Faulted {
			return fmt.Errorf("traced node %s latency differs from RunWithEnv", ns.Node)
		}
	}
	for _, ps := range u.res.Paths {
		if base.PathLatency(ps.Path) != ps.Baseline || flt.PathLatency(ps.Path) != ps.Faulted {
			return fmt.Errorf("traced path %s latency differs from RunWithEnv", ps.Path)
		}
	}
	return nil
}

// worstPath returns the worst computation path's samples (the path
// with the largest mean, the paper's end-to-end definition) of the
// faulted leg, or of the only leg.
func worstPath(rec *trace.Recorder) []float64 {
	name, _ := rec.EndToEnd()
	return rec.PathSamples(name)
}

// runDrive sets up setupRepeats times, then times untraced drives until
// the wall budget is spent (at least one), checking every output. With
// a recorder it times one untraced drive and one traced drive instead.
func runDrive(out *outcome, name string, seed uint64, seconds time.Duration, rec *recorder) error {
	d, err := newDrive(name, seed)
	if err != nil {
		return err
	}
	var setups, maps []float64
	var st *autoware.Stack
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		s, mapTime, err := d.setup()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		maps = append(maps, mapTime.Seconds())
		st = s
	}

	var total phase
	var first untraced
	drives := 0
	heap := startHeapSampler()
	for ; drives == 0 || (rec == nil && total.wall < seconds); drives++ {
		u, err := d.run(st)
		st = nil
		if err != nil {
			return fmt.Errorf("drive %d: %w", drives, err)
		}
		out.attempted++
		if drives == 0 {
			first = u
			if want, ok := pins[name]; ok && seed == defaultSeed && u.hash != want {
				out.fail("output hash %s, pinned %s", u.hash, want)
			}
		} else if u.hash != first.hash {
			out.fail("drive %d output hash %s differs from the first drive's %s", drives, u.hash, first.hash)
		}
		total.add(u.phase)
		fmt.Fprintf(os.Stderr, "%s: drive %d: %.2f s wall, output %s\n", name, drives, u.wall.Seconds(), u.hash[:16])
	}
	liveHeap := heap.finish()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	sim := float64(drives) * d.simPerRun.Seconds()
	if rec == nil {
		n := len(total.stepsMS)
		out.set("setup_s", median(setups), len(setups))
		out.set("live_heap_mb", median(liveHeap), len(liveHeap))
		out.set("sim_s_per_wall_s", sim/total.wall.Seconds(), n)
		out.set("allocs_per_sim_s", float64(total.allocs)/sim, n)
		out.set("alloc_mb_per_sim_s", float64(total.bytes)/(1<<20)/sim, n)
		out.set("op_p50_ms", median(total.stepsMS), n)
		return nil
	}
	out.setPercentile("op_p99_ms", total.stepsMS, 0.99)

	t, err := d.runTraced(rec)
	if err != nil {
		return fmt.Errorf("traced drive: %w", err)
	}
	out.attempted++
	identical := 1.0
	if err := d.sameVirtual(first, t); err != nil {
		identical = 0
		out.fail("traced run changed the virtual plane: %v", err)
	}
	out.set("bench.vt_identical", identical, 1)
	out.set("bench.tracing_overhead", t.wall.Seconds()/first.wall.Seconds(), 1)
	out.set("hdmap.build_s", median(maps), len(maps))
	out.set("runtime.peak_rss_mb", rss, 1)
	out.set("runtime.gc_cycles", float64(first.gcs), 1)
	out.set("runtime.gc_pause_ms", float64(first.gcPause.Nanoseconds())/1e6, 1)

	legs := len(t.stacks)
	s := t.sensors
	out.set("sensor.lidar_scan_ms", s.lidar.msPerCall(), s.lidar.calls)
	out.set("sensor.lidar_allocs", s.lidar.allocsPerCall(), s.lidar.calls)
	out.set("sensor.camera_capture_ms", s.camera.msPerCall(), s.camera.calls)
	out.set("sensor.camera_allocs", s.camera.allocsPerCall(), s.camera.calls)
	// Every leg pumps the same sensors, so the untraced drive spent the
	// sensor pass's time once per leg.
	childNS := int64(legs) * (s.lidar.ns + s.camera.ns)
	for _, node := range perceptionNodes {
		var c callStat
		for _, sh := range t.shadow {
			c.calls += sh.stats[node].calls
			c.ns += sh.stats[node].ns
			c.allocs += sh.stats[node].allocs
		}
		childNS += c.ns
		out.set("nodes."+node+".host_ms", c.msPerCall(), c.calls)
		out.set("nodes."+node+".allocs", c.allocsPerCall(), c.calls)
		out.set("nodes."+node+".calls", float64(c.calls), 1)
	}
	// Platform self time: the untraced timed phase minus the node and
	// sensor time the traced run measured inside it — the executor,
	// simulator, transport, trace recorder and power sampler.
	out.set("platform.self_ms_per_sim_s", float64(first.wall.Nanoseconds()-childNS)/1e6/sim, 1)

	var callbacks, published, dropped, acquired, quarantined, restarts float64
	for _, st := range t.stacks {
		for _, n := range st.Recorder.NodeNames() {
			callbacks += float64(st.Recorder.Callbacks(n))
		}
		for _, ts := range st.Bus.TopicStats() {
			published += float64(ts.Messages)
			quarantined += float64(ts.Quarantined)
		}
		for _, dr := range st.Bus.DropReports() {
			dropped += float64(dr.Dropped)
		}
		acquired += float64(st.Bus.PoolStats().Acquired)
		for _, o := range st.Recorder.Outages() {
			restarts += float64(o.Restarts)
		}
	}
	out.set("platform.callbacks", callbacks, legs)
	out.set("ros.published", published, legs)
	out.set("ros.dropped", dropped, legs)
	out.set("ros.pool_acquired", acquired, legs)
	out.set("guard.quarantined", quarantined, legs)
	out.set("supervise.restarts", restarts, legs)
	h := &t.hooks
	out.set("faults.publish_filter_ns", h.publish.nsPerCall(), h.publish.calls)
	out.set("guard.ingress_filter_ns", h.ingress.nsPerCall(), h.ingress.calls)
	out.set("supervise.callback_filter_ns", h.callback.nsPerCall(), h.callback.calls)

	worst := worstPath(t.stacks[legs-1].Recorder)
	out.setPercentile("vt.p99_ms", worst, 0.99)
	out.set("vt.over_budget_frac", overBudgetFrac(worst, budgetMS), len(worst))
	return nil
}
