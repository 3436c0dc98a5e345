package autoware

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/guard"
	"repro/internal/hdmap"
	"repro/internal/mathx"
	"repro/internal/msgs"
	"repro/internal/nodes/costmap"
	"repro/internal/nodes/filters"
	"repro/internal/nodes/fusion"
	"repro/internal/nodes/lidardet"
	"repro/internal/nodes/localization"
	"repro/internal/nodes/motion"
	"repro/internal/nodes/planning"
	"repro/internal/nodes/prediction"
	"repro/internal/nodes/tracking"
	"repro/internal/nodes/visiondet"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/ros"
	"repro/internal/sensor"
	"repro/internal/trace"
	"repro/internal/world"
)

// Stack is a fully assembled system ready to run.
type Stack struct {
	Config   Config
	Scenario *world.Scenario
	Map      *hdmap.Map

	Sim      *platform.Sim
	CPU      *platform.CPU
	GPU      *platform.GPU
	Bus      *ros.Bus
	Executor *platform.Executor
	Recorder *trace.Recorder
	Sampler  *power.Sampler
	// Guard is the input-integrity layer, nil unless Config.Guard.
	Guard *guard.Guard

	lidar  *sensor.LiDAR
	camera *sensor.Camera
	gnss   *sensor.GNSS
	imu    *sensor.IMU

	pumpRNG *mathx.RNG

	// NDT exposes the localization node for pose queries.
	NDT *localization.NDTMatching
	// Tracker exposes the tracking node.
	Tracker *tracking.Tracker

	ran time.Duration
}

// Build assembles a stack over a freshly built environment (see
// BuildEnv); BuildWithMap reuses a prebuilt one.
func Build(cfg Config) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scen, m, err := BuildEnv(cfg)
	if err != nil {
		return nil, err
	}
	return BuildWithMap(cfg, scen, m)
}

// BuildEnv builds the environment a stack drives through: the world
// cfg.Scenario describes and its HD map, loaded from cfg.MapFile or
// else surveyed with cfg.Map. The map dominates construction time.
// Both are read-only once built, so any number of stacks may share
// them.
func BuildEnv(cfg Config) (*world.Scenario, *hdmap.Map, error) {
	scen, err := world.BuildScenario(cfg.Scenario)
	if err != nil {
		return nil, nil, err
	}
	var m *hdmap.Map
	if cfg.MapFile != "" {
		m, err = hdmap.LoadFile(cfg.MapFile)
	} else {
		m, err = hdmap.Build(scen, cfg.Map)
	}
	if err != nil {
		return nil, nil, err
	}
	return scen, m, nil
}

// BuildWithMap assembles a stack over an existing scenario and map.
func BuildWithMap(cfg Config, scen *world.Scenario, m *hdmap.Map) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Weather rides in the scenario config as a sensor-noise profile:
	// the world itself stays noise-free (and the HD map with it — maps
	// are surveyed in clear weather), the sensor suite degrades. A
	// zero-value profile changes nothing, so scripted runs keep their
	// golden-pinned sensor streams bit for bit.
	if n := cfg.Scenario.Noise; !n.IsZero() {
		if err := n.Validate(); err != nil {
			return nil, err
		}
		if n.LiDARRange > 0 {
			cfg.LiDAR.RangeNoise *= n.LiDARRange
		}
		if n.LiDARDrop > 0 {
			cfg.LiDAR.DropProb += n.LiDARDrop
			if cfg.LiDAR.DropProb > 0.95 {
				cfg.LiDAR.DropProb = 0.95
			}
		}
		if n.CameraPixel > 0 {
			cfg.Camera.PixelNoise *= n.CameraPixel
		}
	}
	sim := platform.NewSim()
	cpu := platform.NewCPU(cfg.CPU, sim)
	gpu := platform.NewGPU(cfg.GPU, sim)
	bus := ros.NewBus()
	bus.EnableStats(platform.PayloadBytes)
	ex := platform.NewExecutor(sim, cpu, gpu, bus, platform.NewJitter(cfg.Jitter))

	s := &Stack{
		Config:   cfg,
		Scenario: scen,
		Map:      m,
		Sim:      sim,
		CPU:      cpu,
		GPU:      gpu,
		Bus:      bus,
		Executor: ex,
		pumpRNG:  mathx.NewRNG(0x9B2B5),
		lidar:    sensor.NewLiDAR(cfg.LiDAR, scen.City),
		camera:   sensor.NewCamera(cfg.Camera, scen.City),
		gnss:     sensor.NewGNSS(2.0, 0x6A55),
		imu:      sensor.NewIMU(0x1407),
	}

	arch, err := cfg.Detector.Arch()
	if err != nil {
		return nil, err
	}
	vcfg := visiondet.DefaultConfig(arch)
	if cfg.VisionQueueDepth > 0 {
		vcfg.QueueDepth = cfg.VisionQueueDepth
	}
	vision := visiondet.New(vcfg)

	add := func(n ros.Node) {
		ex.AddNode(n, platform.NodeOptions{CostScale: costScales[n.Name()]})
	}

	switch cfg.Mode {
	case ModeVisionStandalone:
		add(vision)
	case ModeFull, ModeFullWithPlanning:
		vgCfg := filters.DefaultVoxelGridConfig()
		if cfg.VoxelLeaf > 0 {
			vgCfg.Leaf = cfg.VoxelLeaf
		}
		add(filters.NewVoxelGrid(vgCfg))
		add(filters.NewRayGround(filters.DefaultRayGroundConfig()))
		s.NDT = localization.New(localization.DefaultConfig(), m)
		add(s.NDT)
		add(lidardet.New(lidardet.DefaultConfig()))
		add(vision)
		fcfg := fusion.DefaultConfig()
		fcfg.Camera = cfg.Camera
		add(fusion.New(fcfg))
		s.Tracker = tracking.New(tracking.DefaultConfig())
		add(s.Tracker)
		add(prediction.NewRelay())
		add(prediction.New(prediction.DefaultConfig()))
		add(costmap.NewPoints(costmap.DefaultConfig()))
		add(costmap.NewObjects(costmap.DefaultConfig()))
		if cfg.Mode == ModeFullWithPlanning {
			add(planning.NewGlobal(scen.Lanes))
			add(planning.NewLocal())
			add(motion.NewPurePursuit(motion.DefaultPurePursuitConfig()))
			add(motion.NewTwistFilter(motion.DefaultTwistFilterConfig()))
		}
	default:
		return nil, fmt.Errorf("autoware: unknown mode %d", cfg.Mode)
	}
	if err := bus.Validate(); err != nil {
		return nil, err
	}

	if cfg.Guard {
		s.Guard = guard.New(guard.Config{})
		s.Guard.Attach(ex)
	}

	s.Recorder = trace.NewRecorder(trace.StandardPaths())
	s.Recorder.Warmup = cfg.Warmup
	s.Recorder.Attach(ex)

	s.Sampler = power.NewSampler(power.DefaultCPUModel(), cpu, gpu)
	s.Sampler.Start(sim)

	if !cfg.NoSensorPumps {
		s.schedulePumps()
	}
	return s, nil
}

// InjectBag schedules recorded sensor messages for publication at their
// recorded stamps — the replayable-input methodology of the paper's
// Fig. 3, with the bag standing in for live sensors.
func (s *Stack) InjectBag(records []ros.BagRecord) {
	for _, rec := range records {
		rec := rec
		s.Sim.Schedule(rec.Stamp, func() {
			s.Executor.Publish(rec.Topic, rec.Payload)
		})
	}
}

// schedulePumps installs the recurring sensor drivers. Sensors are
// offset slightly so their first frames do not collide at t=0, like
// free-running hardware.
func (s *Stack) schedulePumps() {
	cfg := s.Config
	lidarPeriod := time.Duration(float64(time.Second) / cfg.LiDARRate)
	cameraPeriod := time.Duration(float64(time.Second) / cfg.CameraRate)
	gnssPeriod := time.Duration(float64(time.Second) / cfg.GNSSRate)
	imuPeriod := time.Duration(float64(time.Second) / cfg.IMURate)

	needLiDAR := cfg.Mode != ModeVisionStandalone

	if needLiDAR {
		s.every(7*time.Millisecond, lidarPeriod, func(snap *world.Snapshot) {
			cloud := s.lidar.Scan(snap)
			s.Executor.Publish(filters.TopicPointsRaw, &msgs.PointCloud{Cloud: cloud})
		})
		s.every(3*time.Millisecond, gnssPeriod, func(snap *world.Snapshot) {
			s.Executor.Publish(localization.TopicGNSS, &msgs.GNSS{Fix: s.gnss.Fix(snap)})
		})
		s.every(1*time.Millisecond, imuPeriod, func(snap *world.Snapshot) {
			s.Executor.Publish(localization.TopicIMU, &msgs.IMU{Sample: s.imu.Sample(snap)})
		})
	}
	s.every(11*time.Millisecond, cameraPeriod, func(snap *world.Snapshot) {
		frame := s.camera.Capture(snap)
		s.Executor.Publish(visiondet.TopicImageRaw, &msgs.CameraImage{Frame: frame})
	})

	if s.Config.Mode == ModeFullWithPlanning {
		// Issue a navigation goal once, shortly after localization
		// settles: the far corner of the ego loop.
		s.Sim.Schedule(2*time.Second, func() {
			n := float64(s.Scenario.City.Blocks)
			bs := s.Scenario.City.BlockSize
			goal := geom.NewPose((n-1)*bs, (n-1)*bs, 0, 0)
			s.Executor.Publish(planning.TopicGoal, &msgs.PoseStamped{Pose: goal})
		})
	}
}

// every schedules a recurring pump with an initial phase offset and a
// small per-tick period drift (±1 ms), so free-running sensors slide in
// phase against each other instead of staying artificially locked.
func (s *Stack) every(offset, period time.Duration, fn func(*world.Snapshot)) {
	rng := s.pumpRNG.Split()
	var tick func()
	tick = func() {
		snap := s.Scenario.At(s.Sim.Now().Seconds())
		fn(&snap)
		drift := time.Duration(rng.Range(-1e6, 1e6))
		s.Sim.After(period+drift, tick)
	}
	s.Sim.Schedule(offset, tick)
}

// Run advances the simulation by the given virtual duration (cumulative
// across calls).
func (s *Stack) Run(d time.Duration) {
	s.ran += d
	s.Sim.Run(s.ran)
}

// ErrCancelled is the sentinel RunContext wraps when the context ends
// before the drive horizon: the run stopped early, its measurements
// cover only the virtual time actually simulated.
var ErrCancelled = errors.New("autoware: run cancelled")

// runSlice is the virtual-time granularity at which RunContext polls
// the context. Event order is identical to one uninterrupted Run — the
// event loop pops strictly by (time, seq) either way — so slicing
// changes cancellation latency, never a reported number.
const runSlice = 100 * time.Millisecond

// RunContext is Run with cooperative cancellation: it advances the
// drive in runSlice virtual steps, checking ctx between steps, and
// returns an error wrapping both ErrCancelled and ctx.Err() if the
// context ends first. A fleet job deadline therefore stops in-flight
// simulation within one slice of wall clock instead of leaking the
// vehicle until drive end. Identical inputs run to completion produce
// results byte-identical to Run.
func (s *Stack) RunContext(ctx context.Context, d time.Duration) error {
	target := s.ran + d
	for s.ran < target {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w at t=%v: %w", ErrCancelled, s.ran, err)
		}
		step := runSlice
		if rem := target - s.ran; rem < step {
			step = rem
		}
		s.ran += step
		s.Sim.Run(s.ran)
	}
	return nil
}

// Horizon returns the total virtual time simulated so far.
func (s *Stack) Horizon() time.Duration { return s.ran }

// UtilizationReport returns the Table V-style per-node platform shares.
func (s *Stack) UtilizationReport() []power.UtilizationRow {
	return power.UtilizationReport(s.CPU, s.GPU, s.Horizon())
}

// VisionNodeName is the display name the recorder uses for the vision
// detector (the paper labels it vision_detection in all plots).
const VisionNodeName = "vision_detection"

// TrackerNodeName and LocalizerNodeName are the stateful nodes the
// supervision layer checkpoints by default.
const (
	TrackerNodeName   = "imm_ukf_pda_tracker"
	LocalizerNodeName = "ndt_matching"
)
