package planning

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/nodes/costmap"
	"repro/internal/ros"
	"repro/internal/world"
)

func lanes(t *testing.T) *world.LaneNetwork {
	t.Helper()
	return world.NewScenario(world.DefaultScenarioConfig()).Lanes
}

func TestGlobalPlanFindsRoute(t *testing.T) {
	g := NewGlobal(lanes(t))
	start := geom.V2(100, 100)
	goal := geom.V2(500, 300)
	lane, expanded, err := g.Plan(start, goal)
	if err != nil {
		t.Fatal(err)
	}
	if expanded == 0 {
		t.Error("A* expanded nothing")
	}
	if len(lane.Waypoints) < 10 {
		t.Fatalf("waypoints = %d", len(lane.Waypoints))
	}
	// Route starts near start and ends near goal.
	first := lane.Waypoints[0].Pos
	last := lane.Waypoints[len(lane.Waypoints)-1].Pos
	if first.Dist(start) > 80 {
		t.Errorf("route start %v far from %v", first, start)
	}
	if last.Dist(goal) > 80 {
		t.Errorf("route end %v far from %v", last, goal)
	}
	// Cost is at least the Manhattan-ish shortest distance.
	if lane.Cost < 500-80 {
		t.Errorf("route cost = %v suspiciously small", lane.Cost)
	}
	// Waypoints are contiguous (no jumps beyond the densify step + edge).
	for i := 1; i < len(lane.Waypoints); i++ {
		if lane.Waypoints[i].Pos.Dist(lane.Waypoints[i-1].Pos) > 25 {
			t.Fatalf("gap at waypoint %d", i)
		}
	}
}

func TestGlobalPlanOptimalOnGrid(t *testing.T) {
	g := NewGlobal(lanes(t))
	// Straight line along one street: cost equals the street distance.
	lane, _, err := g.Plan(geom.V2(100, 100), geom.V2(400, 100))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lane.Cost-300) > 1 {
		t.Errorf("straight route cost = %v, want 300", lane.Cost)
	}
}

func TestGlobalPlannerProcessFlow(t *testing.T) {
	g := NewGlobal(lanes(t))
	// Pose before goal: nothing.
	res := g.Process(&ros.Message{
		Topic:   "/current_pose",
		Payload: &msgs.PoseStamped{Pose: geom.NewPose(100, 100, 0, 0)},
	}, 0)
	if len(res.Outputs) != 0 {
		t.Error("should not plan without a goal")
	}
	// Set goal.
	g.Process(&ros.Message{
		Topic:   TopicGoal,
		Payload: &msgs.PoseStamped{Pose: geom.NewPose(500, 500, 0, 0)},
	}, 0)
	// Pose triggers planning.
	res = g.Process(&ros.Message{
		Topic:   "/current_pose",
		Payload: &msgs.PoseStamped{Pose: geom.NewPose(100, 100, 0, 0)},
	}, 0)
	if len(res.Outputs) != 1 || res.Outputs[0].Topic != TopicGlobalRoute {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	arr := res.Outputs[0].Payload.(*msgs.LaneArray)
	if arr.Best != 0 || len(arr.Lanes) != 1 {
		t.Errorf("lane array = %+v", arr)
	}
}

func TestLocalPlannerSelectsCenterWhenFree(t *testing.T) {
	l := NewLocal()
	// Straight route east.
	route := msgs.Lane{}
	for x := 0.0; x < 60; x += 2 {
		route.Waypoints = append(route.Waypoints, msgs.Waypoint{Pos: geom.V2(x, 0), Yaw: 0, Speed: 8})
	}
	l.Process(&ros.Message{Payload: &msgs.LaneArray{Lanes: []msgs.Lane{route}, Best: 0}}, 0)
	l.Process(&ros.Message{Payload: &msgs.PoseStamped{Pose: geom.NewPose(0, 0, 0, 0)}}, 0)
	// Free costmap centered at ego.
	grid := &msgs.OccupancyGrid{
		Width: 120, Height: 120, Resolution: 0.5,
		Origin: geom.V2(-30, -30), Data: make([]int8, 120*120),
	}
	res := l.Process(&ros.Message{Payload: grid}, 0)
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	arr := res.Outputs[0].Payload.(*msgs.LaneArray)
	if arr.Best != (l.Rollouts-1)/2 {
		t.Errorf("best rollout = %d, want center %d", arr.Best, (l.Rollouts-1)/2)
	}
}

func TestLocalPlannerAvoidsBlockedCenter(t *testing.T) {
	l := NewLocal()
	route := msgs.Lane{}
	for x := 0.0; x < 60; x += 2 {
		route.Waypoints = append(route.Waypoints, msgs.Waypoint{Pos: geom.V2(x, 0), Yaw: 0, Speed: 8})
	}
	l.Process(&ros.Message{Payload: &msgs.LaneArray{Lanes: []msgs.Lane{route}, Best: 0}}, 0)
	l.Process(&ros.Message{Payload: &msgs.PoseStamped{Pose: geom.NewPose(0, 0, 0, 0)}}, 0)
	grid := &msgs.OccupancyGrid{
		Width: 120, Height: 120, Resolution: 0.5,
		Origin: geom.V2(-30, -30), Data: make([]int8, 120*120),
	}
	// Block a band across the centerline at x = 10..12, y in [-1, 1].
	for x := 10.0; x <= 12; x += 0.5 {
		for y := -1.0; y <= 1; y += 0.5 {
			cx, cy := grid.CellOf(geom.V2(x, y))
			grid.Set(cx, cy, 100)
		}
	}
	res := l.Process(&ros.Message{Payload: grid}, 0)
	arr := res.Outputs[0].Payload.(*msgs.LaneArray)
	if arr.Best == (l.Rollouts-1)/2 {
		t.Error("center rollout should be blocked")
	}
	if arr.Best < 0 {
		t.Error("an offset rollout should be feasible")
	}
}

func TestLocalPlannerAllBlocked(t *testing.T) {
	l := NewLocal()
	route := msgs.Lane{}
	for x := 0.0; x < 30; x += 2 {
		route.Waypoints = append(route.Waypoints, msgs.Waypoint{Pos: geom.V2(x, 0), Yaw: 0, Speed: 8})
	}
	l.Process(&ros.Message{Payload: &msgs.LaneArray{Lanes: []msgs.Lane{route}, Best: 0}}, 0)
	l.Process(&ros.Message{Payload: &msgs.PoseStamped{Pose: geom.NewPose(0, 0, 0, 0)}}, 0)
	grid := &msgs.OccupancyGrid{
		Width: 120, Height: 120, Resolution: 0.5,
		Origin: geom.V2(-30, -30), Data: make([]int8, 120*120),
	}
	// Wall across all rollouts.
	for y := -6.0; y <= 6; y += 0.25 {
		cx, cy := grid.CellOf(geom.V2(8, y))
		grid.Set(cx, cy, 100)
	}
	res := l.Process(&ros.Message{Payload: grid}, 0)
	arr := res.Outputs[0].Payload.(*msgs.LaneArray)
	if arr.Best != -1 {
		t.Errorf("all-blocked should yield Best=-1, got %d", arr.Best)
	}
}

func TestLocalPlannerNeedsRouteAndPose(t *testing.T) {
	l := NewLocal()
	grid := &msgs.OccupancyGrid{Width: 10, Height: 10, Resolution: 1, Data: make([]int8, 100)}
	res := l.Process(&ros.Message{Payload: grid}, 0)
	if len(res.Outputs) != 0 {
		t.Error("planner with no route should not emit a path")
	}
}

func TestSubscriptions(t *testing.T) {
	g := NewGlobal(lanes(t))
	if len(g.Subscribes()) != 2 {
		t.Error("global planner subscriptions")
	}
	l := NewLocal()
	found := false
	for _, s := range l.Subscribes() {
		if s.Topic == costmap.TopicObjectsCostmap {
			found = true
		}
	}
	if !found {
		t.Error("local planner should consume the objects costmap")
	}
}

func TestGlobalPlannerPanicsOnNilLanes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGlobal(nil)
}
