package autoware

import (
	"sync"
	"testing"
	"time"

	"repro/internal/hdmap"
	"repro/internal/world"
)

var (
	envOnce sync.Once
	envScen *world.Scenario
	envMap  *hdmap.Map
	envErr  error
)

// testEnv returns the default drive's environment, built once per test
// binary.
func testEnv(t *testing.T) (*world.Scenario, *hdmap.Map) {
	t.Helper()
	envOnce.Do(func() { envScen, envMap, envErr = BuildEnv(DefaultConfig(DetectorSSD300)) })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envScen, envMap
}

// buildTestStack assembles a stack on the shared fixtures.
func buildTestStack(t *testing.T, det Detector, mode Mode) *Stack {
	t.Helper()
	cfg := DefaultConfig(det)
	cfg.Mode = mode
	scen, m := testEnv(t)
	s, err := BuildWithMap(cfg, scen, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFullStackProducesAllNodeSamples(t *testing.T) {
	s := buildTestStack(t, DetectorSSD300, ModeFull)
	s.Run(12 * time.Second)
	want := []string{
		"voxel_grid_filter", "ray_ground_filter", "ndt_matching",
		"euclidean_cluster", "vision_detection", "range_vision_fusion",
		"imm_ukf_pda_tracker", "ukf_track_relay", "naive_motion_predict",
		"costmap_generator", "costmap_generator_obj",
	}
	for _, n := range want {
		if s.Recorder.NodeLatency(n).Count == 0 {
			t.Errorf("node %s produced no latency samples", n)
		}
	}
	// All four computation paths observed.
	for _, p := range s.Recorder.PathNames() {
		if s.Recorder.PathLatency(p).Count == 0 {
			t.Errorf("path %s has no samples", p)
		}
	}
}

func TestStackLocalizationTracksGroundTruth(t *testing.T) {
	s := buildTestStack(t, DetectorYOLOv3, ModeFull)
	s.Run(15 * time.Second)
	pose, ok := s.NDT.Pose()
	if !ok {
		t.Fatal("localization never initialized")
	}
	truth := s.Scenario.At(s.Sim.Now().Seconds())
	// The estimate lags ground truth by up to one pipeline latency;
	// meters-level agreement is the expectation here.
	if d := pose.XY().Dist(truth.Ego.Pose.XY()); d > 4 {
		t.Errorf("localization error %.2f m", d)
	}
}

func TestStackTracksObjects(t *testing.T) {
	s := buildTestStack(t, DetectorSSD300, ModeFull)
	s.Run(15 * time.Second)
	if len(s.Tracker.Tracks()) == 0 {
		t.Error("tracker holds no tracks after 15 s of traffic")
	}
}

func TestStackDeterminism(t *testing.T) {
	a := buildTestStack(t, DetectorSSD512, ModeFull)
	a.Run(8 * time.Second)
	b := buildTestStack(t, DetectorSSD512, ModeFull)
	b.Run(8 * time.Second)
	sa := a.Recorder.NodeLatency(VisionNodeName)
	sb := b.Recorder.NodeLatency(VisionNodeName)
	if sa.Count != sb.Count || sa.Mean != sb.Mean || sa.Max != sb.Max {
		t.Errorf("runs diverge: %+v vs %+v", sa, sb)
	}
}

func TestVisionStandaloneMode(t *testing.T) {
	s := buildTestStack(t, DetectorSSD512, ModeVisionStandalone)
	s.Run(12 * time.Second)
	if s.Recorder.NodeLatency(VisionNodeName).Count == 0 {
		t.Fatal("standalone vision produced no samples")
	}
	if s.Recorder.NodeLatency("ndt_matching").Count != 0 {
		t.Error("standalone mode should not run LiDAR nodes")
	}
}

func TestStandaloneFasterAndSteadierThanFull(t *testing.T) {
	// Finding 4/5: full-system execution raises the detector's mean and
	// standard deviation versus standalone.
	alone := buildTestStack(t, DetectorSSD512, ModeVisionStandalone)
	alone.Run(20 * time.Second)
	full := buildTestStack(t, DetectorSSD512, ModeFull)
	full.Run(20 * time.Second)
	sa := alone.Recorder.NodeLatency(VisionNodeName)
	sf := full.Recorder.NodeLatency(VisionNodeName)
	if sf.Mean <= sa.Mean {
		t.Errorf("full-system mean (%v) should exceed standalone (%v)", sf.Mean, sa.Mean)
	}
	if sf.StdDev <= sa.StdDev {
		t.Errorf("full-system stddev (%v) should exceed standalone (%v)", sf.StdDev, sa.StdDev)
	}
}

func TestEndToEndExceedsBudget(t *testing.T) {
	// Finding 2: with SSD512 the worst path's tail exceeds 2x the
	// 100 ms budget.
	s := buildTestStack(t, DetectorSSD512, ModeFull)
	s.Run(30 * time.Second)
	name, sum := s.Recorder.EndToEnd()
	if name != "costmap_vision_obj" {
		t.Errorf("worst path = %s", name)
	}
	if sum.Max < 150 {
		t.Errorf("end-to-end max = %.1f ms, expected budget-breaking tail", sum.Max)
	}
	if sum.Mean < 100 {
		t.Errorf("end-to-end mean = %.1f ms, expected > 100", sum.Mean)
	}
}

func TestUtilizationUnderForty(t *testing.T) {
	// Finding 3: resources are not saturated.
	s := buildTestStack(t, DetectorSSD512, ModeFull)
	s.Run(20 * time.Second)
	if u := s.Sampler.MeanCPUUtil(); u > 0.5 {
		t.Errorf("CPU util = %.2f, expected < 0.5 (paper reports ~0.38)", u)
	}
	if u := s.Sampler.MeanGPUUtil(); u > 0.6 {
		t.Errorf("GPU util = %.2f", u)
	}
	rows := s.UtilizationReport()
	if len(rows) < 5 {
		t.Fatalf("utilization rows = %d", len(rows))
	}
	// vision_detection should be the top CPU consumer with SSD512.
	if rows[0].Node != VisionNodeName {
		t.Errorf("top CPU consumer = %s", rows[0].Node)
	}
}

func TestPlanningModeRuns(t *testing.T) {
	s := buildTestStack(t, DetectorSSD300, ModeFullWithPlanning)
	s.Run(12 * time.Second)
	if s.Recorder.NodeLatency("op_global_planner").Count == 0 {
		t.Error("global planner never planned")
	}
	if s.Recorder.NodeLatency("op_local_planner").Count == 0 {
		t.Error("local planner never produced a path")
	}
	if s.Recorder.NodeLatency("pure_pursuit").Count == 0 {
		t.Error("pure pursuit never commanded")
	}
	if s.Recorder.NodeLatency("twist_filter").Count == 0 {
		t.Error("twist filter never ran")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(Detector("bogus"))
	if err := cfg.Validate(); err == nil {
		t.Error("bogus detector should fail validation")
	}
	cfg = DefaultConfig(DetectorSSD300)
	cfg.CameraRate = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero camera rate should fail validation")
	}
	scen, m := testEnv(t)
	if _, err := BuildWithMap(cfg, scen, m); err == nil {
		t.Error("build with invalid config should fail")
	}
}

func TestDetectorsList(t *testing.T) {
	ds := Detectors()
	if len(ds) != 3 {
		t.Fatalf("detectors = %v", ds)
	}
	for _, d := range ds {
		if _, err := d.Arch(); err != nil {
			t.Errorf("detector %s: %v", d, err)
		}
	}
}
