package autoware

import (
	"testing"
	"time"

	"repro/internal/msgs"
	"repro/internal/nodes/filters"
	"repro/internal/nodes/localization"
	"repro/internal/nodes/visiondet"
	"repro/internal/ros"
	"repro/internal/sensor"
	"repro/internal/world"
)

// recordDrive synthesizes the sensor streams of a drive window into bag
// records, optionally blanking an outage window for a topic.
func recordDrive(t *testing.T, duration time.Duration, outageTopic string, outageFrom, outageTo time.Duration) []ros.BagRecord {
	t.Helper()
	scen, _ := testEnv(t)
	lidar := sensor.NewLiDAR(sensor.DefaultLiDARConfig(), scen.City)
	camera := sensor.NewCamera(sensor.DefaultCameraConfig(), scen.City)
	gnss := sensor.NewGNSS(2.0, 0x6A55)
	imu := sensor.NewIMU(0x1407)

	var recs []ros.BagRecord
	add := func(topic string, stamp time.Duration, payload any) {
		if topic == outageTopic && stamp >= outageFrom && stamp < outageTo {
			return
		}
		recs = append(recs, ros.BagRecord{Topic: topic, Stamp: stamp, Payload: payload})
	}
	snapAt := func(stamp time.Duration) world.Snapshot { return scen.At(stamp.Seconds()) }
	for stamp := 7 * time.Millisecond; stamp < duration; stamp += 100 * time.Millisecond {
		snap := snapAt(stamp)
		add(filters.TopicPointsRaw, stamp, &msgs.PointCloud{Cloud: lidar.Scan(&snap)})
	}
	for stamp := 11 * time.Millisecond; stamp < duration; stamp += 101 * time.Millisecond {
		snap := snapAt(stamp)
		add(visiondet.TopicImageRaw, stamp, &msgs.CameraImage{Frame: camera.Capture(&snap)})
	}
	for stamp := 3 * time.Millisecond; stamp < duration; stamp += time.Second {
		snap := snapAt(stamp)
		add(localization.TopicGNSS, stamp, &msgs.GNSS{Fix: gnss.Fix(&snap)})
	}
	for stamp := 1 * time.Millisecond; stamp < duration; stamp += 20 * time.Millisecond {
		snap := snapAt(stamp)
		add(localization.TopicIMU, stamp, &msgs.IMU{Sample: imu.Sample(&snap)})
	}
	return recs
}

func replayStack(t *testing.T, recs []ros.BagRecord, horizon time.Duration) *Stack {
	t.Helper()
	cfg := DefaultConfig(DetectorSSD300)
	cfg.NoSensorPumps = true
	scen, m := testEnv(t)
	s, err := BuildWithMap(cfg, scen, m)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectBag(recs)
	s.Run(horizon)
	return s
}

func TestBagReplayDrivesFullPipeline(t *testing.T) {
	recs := recordDrive(t, 13*time.Second, "", 0, 0)
	s := replayStack(t, recs, 13*time.Second)
	// The whole graph ran.
	for _, n := range []string{"ndt_matching", "vision_detection", "costmap_generator_obj"} {
		if s.Recorder.NodeLatency(n).Count == 0 {
			t.Errorf("node %s produced nothing under replay", n)
		}
	}
	// Localization converged from replayed data.
	pose, ok := s.NDT.Pose()
	if !ok {
		t.Fatal("replay never localized")
	}
	truth := s.Scenario.At(s.Sim.Now().Seconds())
	if d := pose.XY().Dist(truth.Ego.Pose.XY()); d > 4 {
		t.Errorf("replay localization error %.2f m", d)
	}
}

func TestBagReplayIsDeterministic(t *testing.T) {
	recs := recordDrive(t, 8*time.Second, "", 0, 0)
	a := replayStack(t, recs, 9*time.Second)
	b := replayStack(t, recs, 9*time.Second)
	sa := a.Recorder.NodeLatency("ndt_matching")
	sb := b.Recorder.NodeLatency("ndt_matching")
	if sa.Count != sb.Count || sa.Mean != sb.Mean {
		t.Errorf("replays diverge: %+v vs %+v", sa, sb)
	}
}

// TestLiDAROutageRecovery injects a 2-second LiDAR blackout mid-drive:
// localization must coast on IMU through the gap and re-converge when
// scans return, without the pipeline wedging.
func TestLiDAROutageRecovery(t *testing.T) {
	recs := recordDrive(t, 15*time.Second, filters.TopicPointsRaw, 7*time.Second, 9*time.Second)
	s := replayStack(t, recs, 15*time.Second)

	// The pipeline processed scans both before and after the gap:
	// at 10 Hz over ~12 s of scan coverage minus warmup.
	n := s.Recorder.NodeLatency("ndt_matching").Count
	if n < 80 {
		t.Errorf("scan callbacks = %d; pipeline did not recover after outage", n)
	}
	pose, ok := s.NDT.Pose()
	if !ok {
		t.Fatal("not localized")
	}
	truth := s.Scenario.At(s.Sim.Now().Seconds())
	if d := pose.XY().Dist(truth.Ego.Pose.XY()); d > 5 {
		t.Errorf("post-outage localization error %.2f m", d)
	}
}

// TestGNSSOutageDoesNotBreakTracking removes GNSS entirely after the
// first fix: NDT should keep tracking on scan matching + IMU alone.
func TestGNSSOutageDoesNotBreakTracking(t *testing.T) {
	recs := recordDrive(t, 13*time.Second, localization.TopicGNSS, 2*time.Second, time.Hour)
	s := replayStack(t, recs, 13*time.Second)
	pose, ok := s.NDT.Pose()
	if !ok {
		t.Fatal("never localized from the initial fixes")
	}
	truth := s.Scenario.At(s.Sim.Now().Seconds())
	if d := pose.XY().Dist(truth.Ego.Pose.XY()); d > 4 {
		t.Errorf("GNSS-denied localization error %.2f m", d)
	}
}
