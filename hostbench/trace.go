package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/nodes/costmap"
	"repro/internal/nodes/filters"
	"repro/internal/nodes/fusion"
	"repro/internal/nodes/lidardet"
	"repro/internal/nodes/localization"
	"repro/internal/nodes/prediction"
	"repro/internal/nodes/tracking"
	"repro/internal/nodes/visiondet"
	"repro/internal/platform"
	"repro/internal/ros"
	"repro/internal/sensor"
	"repro/internal/world"
)

// recorder keeps spans in memory for the whole traced run; write puts
// them on disk once the run is over, so file I/O never lands inside a
// timed span.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// add records a span and returns its index for children. A span
// added with a zero end is closed later by finish.
func (r *recorder) add(name string, start, end time.Duration, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent})
	return len(r.spans) - 1
}

// finish closes span i now.
func (r *recorder) finish(i int) {
	end := r.now()
	r.mu.Lock()
	r.spans[i].End = end
	r.mu.Unlock()
}

// write stores the spans as JSON lines: name, start and end in
// nanoseconds since the recorder started, and the parent index.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		if err := enc.Encode(map[string]any{"i": i, "name": s.Name, "start_ns": s.Start.Nanoseconds(), "end_ns": s.End.Nanoseconds(), "parent": s.Parent}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callStat accumulates host cost over calls into one layer.
type callStat struct {
	calls  int
	ns     int64
	allocs uint64
}

func (c *callStat) msPerCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / 1e6 / float64(c.calls)
}

func (c *callStat) allocsPerCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.allocs) / float64(c.calls)
}

func (c *callStat) nsPerCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

// perceptionNodes lists the 11 perception nodes of the full stack in
// registration order.
var perceptionNodes = []string{
	"voxel_grid_filter", "ray_ground_filter", "ndt_matching", "euclidean_cluster",
	"vision_detection", "range_vision_fusion", "imm_ukf_pda_tracker", "ukf_track_relay",
	"naive_motion_predict", "costmap_generator", "costmap_generator_obj",
}

// sensorConfigs applies the scenario's weather profile to the sensor
// suite the way autoware.BuildWithMap does, so traced sensor calls see
// the noise the stack's own sensors see.
func sensorConfigs(cfg autoware.Config) (sensor.LiDARConfig, sensor.CameraConfig) {
	l, c := cfg.LiDAR, cfg.Camera
	if n := cfg.Scenario.Noise; !n.IsZero() {
		if n.LiDARRange > 0 {
			l.RangeNoise *= n.LiDARRange
		}
		if n.LiDARDrop > 0 {
			l.DropProb = min(l.DropProb+n.LiDARDrop, 0.95)
		}
		if n.CameraPixel > 0 {
			c.PixelNoise *= n.CameraPixel
		}
	}
	return l, c
}

// nodeShadow times each perception callback without touching the
// stack: a second instance of every node, built with the stack's own
// configuration, is called on the identical input message and start
// time from the executor's outermost callback filter. The stack's own
// nodes and virtual time never see the shadow.
type nodeShadow struct {
	nodes  map[string]ros.Node
	stats  map[string]*callStat
	rec    *recorder
	parent int
}

// newNodeShadow builds the shadow instances the way autoware.BuildWithMap
// builds the full-mode graph.
func newNodeShadow(cfg autoware.Config, m *hdmap.Map, rec *recorder, parent int) (*nodeShadow, error) {
	arch, err := cfg.Detector.Arch()
	if err != nil {
		return nil, err
	}
	_, cam := sensorConfigs(cfg)
	vg := filters.DefaultVoxelGridConfig()
	if cfg.VoxelLeaf > 0 {
		vg.Leaf = cfg.VoxelLeaf
	}
	fcfg := fusion.DefaultConfig()
	fcfg.Camera = cam
	list := []ros.Node{
		filters.NewVoxelGrid(vg),
		filters.NewRayGround(filters.DefaultRayGroundConfig()),
		localization.New(localization.DefaultConfig(), m),
		lidardet.New(lidardet.DefaultConfig()),
		visiondet.New(visiondet.DefaultConfig(arch)),
		fusion.New(fcfg),
		tracking.New(tracking.DefaultConfig()),
		prediction.NewRelay(),
		prediction.New(prediction.DefaultConfig()),
		costmap.NewPoints(costmap.DefaultConfig()),
		costmap.NewObjects(costmap.DefaultConfig()),
	}
	s := &nodeShadow{nodes: map[string]ros.Node{}, stats: map[string]*callStat{}, rec: rec, parent: parent}
	for _, n := range list {
		s.nodes[n.Name()] = n
		s.stats[n.Name()] = &callStat{}
	}
	for _, name := range perceptionNodes {
		if s.nodes[name] == nil {
			return nil, fmt.Errorf("shadow graph lacks node %s", name)
		}
	}
	return s, nil
}

// attach installs the shadow as the outermost callback filter. The
// verdict comes from the filters below it unchanged. A dropped input
// never reaches the real node, so the shadow skips it too; a stalled
// one runs after the stall, so the shadow runs it at that start time.
func (s *nodeShadow) attach(ex *platform.Executor) {
	prev := ex.CallbackFilter
	ex.CallbackFilter = func(node string, m *ros.Message, now time.Duration) platform.CallbackVerdict {
		var v platform.CallbackVerdict
		if prev != nil {
			v = prev(node, m, now)
		}
		n := s.nodes[node]
		if v.Drop || n == nil {
			return v
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := s.rec.now()
		n.Process(m, now+v.Stall)
		end := s.rec.now()
		runtime.ReadMemStats(&after)
		st := s.stats[node]
		st.calls++
		st.ns += (end - start).Nanoseconds()
		st.allocs += after.Mallocs - before.Mallocs
		s.rec.add("nodes."+node, start, end, s.parent)
		return v
	}
}

// hookTimers time the executor's outermost publish, ingress and
// callback filters — the fault, guard and supervision chains.
type hookTimers struct {
	publish, ingress, callback callStat
}

// wrap times whichever filters are installed; nil filters stay nil so
// a stack without hooks runs exactly as before.
func (h *hookTimers) wrap(ex *platform.Executor) {
	if prev := ex.PublishFilter; prev != nil {
		ex.PublishFilter = func(topic string, payload any, now time.Duration) platform.PublishVerdict {
			t := time.Now()
			v := prev(topic, payload, now)
			h.publish.ns += time.Since(t).Nanoseconds()
			h.publish.calls++
			return v
		}
	}
	if prev := ex.IngressFilter; prev != nil {
		ex.IngressFilter = func(topic string, stamp time.Duration, payload any, now time.Duration) platform.IngressVerdict {
			t := time.Now()
			v := prev(topic, stamp, payload, now)
			h.ingress.ns += time.Since(t).Nanoseconds()
			h.ingress.calls++
			return v
		}
	}
	if prev := ex.CallbackFilter; prev != nil {
		ex.CallbackFilter = func(node string, m *ros.Message, now time.Duration) platform.CallbackVerdict {
			t := time.Now()
			v := prev(node, m, now)
			h.callback.ns += time.Since(t).Nanoseconds()
			h.callback.calls++
			return v
		}
	}
}

// sensorStats is the host cost of synthesizing the sensor streams.
type sensorStats struct {
	lidar, camera callStat
}

// traceSensors calls LiDAR.Scan and Camera.Capture on the workload's
// world at the stack's sensor rates over the drive horizon, on sensor
// instances of its own, and times each call.
func traceSensors(cfg autoware.Config, scen *world.Scenario, horizon time.Duration, rec *recorder, parent int) *sensorStats {
	lcfg, ccfg := sensorConfigs(cfg)
	lidar := sensor.NewLiDAR(lcfg, scen.City)
	camera := sensor.NewCamera(ccfg, scen.City)
	st := &sensorStats{}
	timeCalls := func(name string, offset time.Duration, rate float64, cs *callStat, call func(*world.Snapshot)) {
		period := time.Duration(float64(time.Second) / rate)
		for t := offset; t < horizon; t += period {
			snap := scen.At(t.Seconds())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := rec.now()
			call(&snap)
			end := rec.now()
			runtime.ReadMemStats(&after)
			cs.calls++
			cs.ns += (end - start).Nanoseconds()
			cs.allocs += after.Mallocs - before.Mallocs
			rec.add(name, start, end, parent)
		}
	}
	// Offsets match the stack's pumps: LiDAR at 7 ms, camera at 11 ms.
	timeCalls("sensor.lidar_scan", 7*time.Millisecond, cfg.LiDARRate, &st.lidar, func(s *world.Snapshot) { lidar.Scan(s) })
	timeCalls("sensor.camera_capture", 11*time.Millisecond, cfg.CameraRate, &st.camera, func(s *world.Snapshot) { camera.Capture(s) })
	return st
}
