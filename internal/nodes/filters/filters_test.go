package filters

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/pointcloud"
	"repro/internal/ros"
	"repro/internal/sensor"
	"repro/internal/world"
)

func scanMsg(t *testing.T, at float64) (*ros.Message, *pointcloud.Cloud) {
	t.Helper()
	s := world.NewScenario(world.DefaultScenarioConfig())
	snap := s.At(at)
	cloud := sensor.NewLiDAR(sensor.DefaultLiDARConfig(), s.City).Scan(&snap)
	return &ros.Message{
		Topic:   TopicPointsRaw,
		Header:  ros.Header{Stamp: time.Duration(at * float64(time.Second))},
		Payload: &msgs.PointCloud{Cloud: cloud},
	}, cloud
}

func TestVoxelGridNode(t *testing.T) {
	n := NewVoxelGrid(DefaultVoxelGridConfig())
	if n.Name() != "voxel_grid_filter" {
		t.Error("name mismatch")
	}
	subs := n.Subscribes()
	if len(subs) != 1 || subs[0].Topic != TopicPointsRaw {
		t.Errorf("subs = %+v", subs)
	}
	msg, cloud := scanMsg(t, 12)
	res := n.Process(msg, 0)
	if len(res.Outputs) != 1 || res.Outputs[0].Topic != TopicFilteredPoints {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	out := res.Outputs[0].Payload.(*msgs.PointCloud).Cloud
	if out.Len() == 0 || out.Len() >= cloud.Len() {
		t.Errorf("filtered %d -> %d", cloud.Len(), out.Len())
	}
	if res.Work.CPUOps() <= 0 || res.Work.BytesTouched <= 0 {
		t.Error("work not accounted")
	}
	if len(res.Work.Kernels) != 0 {
		t.Error("voxel grid should be CPU-only")
	}
}

func TestVoxelGridIgnoresWrongPayload(t *testing.T) {
	n := NewVoxelGrid(DefaultVoxelGridConfig())
	res := n.Process(&ros.Message{Payload: "nonsense"}, 0)
	if len(res.Outputs) != 0 {
		t.Error("wrong payload should produce nothing")
	}
}

func TestVoxelGridPanicsOnBadLeaf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewVoxelGrid(VoxelGridConfig{Leaf: 0})
}

func TestRayGroundSplitsScan(t *testing.T) {
	n := NewRayGround(DefaultRayGroundConfig())
	msg, cloud := scanMsg(t, 30)
	res := n.Process(msg, 0)
	if len(res.Outputs) != 2 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	var ground, noGround *pointcloud.Cloud
	for _, o := range res.Outputs {
		pc := o.Payload.(*msgs.PointCloud).Cloud
		switch o.Topic {
		case TopicPointsGround:
			ground = pc
		case TopicPointsNoGround:
			noGround = pc
		}
	}
	if ground == nil || noGround == nil {
		t.Fatal("missing output topics")
	}
	if ground.Len()+noGround.Len() != cloud.Len() {
		t.Errorf("split loses points: %d + %d != %d", ground.Len(), noGround.Len(), cloud.Len())
	}
	if ground.Len() == 0 || noGround.Len() == 0 {
		t.Errorf("degenerate split: ground=%d noGround=%d", ground.Len(), noGround.Len())
	}
	// Ground points sit low; check the medians separate.
	gHigh := 0
	for _, p := range ground.Points {
		if p.Pos.Z > 1.0 {
			gHigh++
		}
	}
	if gHigh > ground.Len()/10 {
		t.Errorf("too many high 'ground' points: %d/%d", gHigh, ground.Len())
	}
}

func TestRayGroundSyntheticWallAndFloor(t *testing.T) {
	n := NewRayGround(DefaultRayGroundConfig())
	cloud := pointcloud.New(64)
	// Floor points at z ~ 0 on a radial line; wall points vertical at x=10.
	for r := 2.0; r < 9; r += 0.5 {
		cloud.Append(pointcloud.Point{Pos: geom.V3(r, 0, 0.02)})
	}
	for z := 0.5; z < 2.5; z += 0.25 {
		cloud.Append(pointcloud.Point{Pos: geom.V3(10, 0, z)})
	}
	ground, noGround := n.Split(cloud)
	for _, p := range ground.Points {
		if p.Pos.Z > 0.4 {
			t.Errorf("wall point classified as ground: %v", p.Pos)
		}
	}
	if noGround.Len() < 7 {
		t.Errorf("wall points missing from no-ground set: %d", noGround.Len())
	}
	if ground.Len() < 10 {
		t.Errorf("floor points missing from ground set: %d", ground.Len())
	}
}

func TestRayGroundFollowsSlope(t *testing.T) {
	cfg := DefaultRayGroundConfig()
	cfg.MaxSlope = 0.2 // ~11 degrees allowed
	n := NewRayGround(cfg)
	cloud := pointcloud.New(32)
	// Gentle 5% ramp should remain ground.
	for r := 2.0; r < 20; r += 0.5 {
		cloud.Append(pointcloud.Point{Pos: geom.V3(r, 0, 0.05*r)})
	}
	ground, noGround := n.Split(cloud)
	if noGround.Len() > 2 {
		t.Errorf("ramp misclassified: %d points flagged non-ground", noGround.Len())
	}
	if ground.Len() < 30 {
		t.Errorf("ground size = %d", ground.Len())
	}
}

func TestRayGroundWorkScalesWithInput(t *testing.T) {
	n := NewRayGround(DefaultRayGroundConfig())
	msgBig, _ := scanMsg(t, 40)
	small := pointcloud.New(10)
	for i := 0; i < 10; i++ {
		small.Append(pointcloud.Point{Pos: geom.V3(float64(i+1), 0, 0)})
	}
	resBig := n.Process(msgBig, 0)
	resSmall := n.Process(&ros.Message{Payload: &msgs.PointCloud{Cloud: small}}, 0)
	if resBig.Work.CPUOps() <= resSmall.Work.CPUOps() {
		t.Error("work should grow with input size")
	}
}
