package hdmap

import (
	"os"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/pointcloud"
	"repro/internal/world"
)

var (
	testMapOnce sync.Once
	testMap     *Map
	testScen    *world.Scenario
)

// sharedMap builds one map for all tests in the package (construction
// sweeps the whole route and is the expensive part).
func sharedMap(t *testing.T) (*Map, *world.Scenario) {
	t.Helper()
	testMapOnce.Do(func() {
		testScen = world.NewScenario(world.DefaultScenarioConfig())
		cfg := DefaultConfig()
		cfg.ScanSpacing = 10 // coarser for test speed
		m, err := Build(testScen, cfg)
		if err != nil {
			panic(err)
		}
		testMap = m
	})
	return testMap, testScen
}

func TestBuildProducesMap(t *testing.T) {
	m, _ := sharedMap(t)
	if m.Cloud.Len() < 10000 {
		t.Errorf("map cloud too sparse: %d points", m.Cloud.Len())
	}
	if m.Scans < 50 {
		t.Errorf("too few mapping scans: %d", m.Scans)
	}
	usable := 0
	for i := 0; i < m.NDT.Len(); i++ {
		if m.NDT.At(i).OK {
			usable++
		}
	}
	if usable < 100 {
		t.Errorf("too few usable NDT voxels: %d", usable)
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	s := world.NewScenario(world.DefaultScenarioConfig())
	cfg := DefaultConfig()
	cfg.ScanSpacing = -1
	if _, err := Build(s, cfg); err == nil {
		t.Error("negative spacing should fail")
	}
}

func TestVoxelAt(t *testing.T) {
	m, s := sharedMap(t)
	// A point near the route at ground structure height should usually
	// have a voxel; a point far outside the city should not.
	pose, _ := s.EgoRoute.At(30)
	found := false
	for dz := 0.0; dz <= 2 && !found; dz += 0.5 {
		for dx := -6.0; dx <= 6 && !found; dx += 2 {
			if m.VoxelAt(pose.Pos.Add(geom.V3(dx, 0, dz))) != nil {
				found = true
			}
		}
	}
	if !found {
		t.Error("no NDT voxel near route point")
	}
	if m.VoxelAt(geom.V3(-500, -500, 0)) != nil {
		t.Error("voxel outside the city should be nil")
	}
}

func TestNeighborVoxelsSorted(t *testing.T) {
	m, s := sharedMap(t)
	pose, _ := s.EgoRoute.At(60)
	p := pose.Pos.Add(geom.V3(0, 0, 0.2))
	vs := m.NeighborVoxels(p)
	for i := 1; i < len(vs); i++ {
		if vs[i].Mean.DistSq(p) < vs[i-1].Mean.DistSq(p) {
			t.Fatal("neighbor voxels not sorted by distance")
		}
	}
}

func TestCoverageAlongRoute(t *testing.T) {
	m, s := sharedMap(t)
	cov := m.Coverage(s, 50)
	if cov < 0.8 {
		t.Errorf("route coverage = %v, want >= 0.8", cov)
	}
}

func TestDirect7Neighborhood(t *testing.T) {
	m, s := sharedMap(t)
	pose, _ := s.EgoRoute.At(45)
	probe := pose.Pos.Add(geom.V3(0, 0, 0.3))
	var buf []*pointcloud.VoxelStats
	buf = m.Direct7(probe, buf[:0])
	if len(buf) > 7 {
		t.Fatalf("Direct7 returned %d voxels", len(buf))
	}
	// Every returned voxel's mean lies within ~2 cells of the probe.
	for _, vs := range buf {
		if vs.Mean.Dist(probe) > 2*m.NDTLeaf*1.8 {
			t.Errorf("voxel mean %v too far from probe %v", vs.Mean, probe)
		}
		if !vs.OK {
			t.Error("Direct7 returned an unusable voxel")
		}
	}
	// Reuse: the buffer grows without reallocating beyond capacity.
	buf2 := m.Direct7(probe, buf[:0])
	if len(buf2) != len(buf) {
		t.Error("Direct7 not deterministic")
	}
}

func TestMapSaveLoadRoundTrip(t *testing.T) {
	m, s := sharedMap(t)
	path := t.TempDir() + "/test.avmap"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cloud.Len() != m.Cloud.Len() {
		t.Errorf("cloud size %d != %d", loaded.Cloud.Len(), m.Cloud.Len())
	}
	if loaded.Scans != m.Scans || loaded.NDTLeaf != m.NDTLeaf {
		t.Errorf("metadata mismatch: %+v", loaded)
	}
	// The rebuilt NDT grid matches voxel for voxel.
	if loaded.NDT.Len() != m.NDT.Len() {
		t.Fatalf("voxel count %d != %d", loaded.NDT.Len(), m.NDT.Len())
	}
	for i := 0; i < m.NDT.Len(); i++ {
		if loaded.NDT.Key(i) != m.NDT.Key(i) || *loaded.NDT.At(i) != *m.NDT.At(i) {
			t.Fatalf("voxel %d differs after reload: %v %+v vs %v %+v",
				i, loaded.NDT.Key(i), *loaded.NDT.At(i), m.NDT.Key(i), *m.NDT.At(i))
		}
	}
	// And localization still works against the loaded map: probe the
	// DIRECT7 neighborhood along the route.
	pose, _ := s.EgoRoute.At(45)
	probe := pose.Pos.Add(geom.V3(0, 0, 0.3))
	a := m.Direct7(probe, nil)
	b := loaded.Direct7(probe, nil)
	if len(a) != len(b) {
		t.Errorf("Direct7 differs after reload: %d vs %d", len(a), len(b))
	}
}

// direct7Reference is Direct7 spelled out through the grid's Get, in
// the same key order.
func direct7Reference(m *Map, p geom.Vec3) []*pointcloud.VoxelStats {
	b := pointcloud.KeyFor(p, m.NDTLeaf)
	var out []*pointcloud.VoxelStats
	for _, d := range [7][3]int32{{0, 0, 0}, {-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}} {
		if vs := m.NDT.Get(pointcloud.VoxelKey{X: b.X + d[0], Y: b.Y + d[1], Z: b.Z + d[2]}); vs != nil && vs.OK {
			out = append(out, vs)
		}
	}
	return out
}

func TestDirect7MatchesGetReference(t *testing.T) {
	m, s := sharedMap(t)
	rng := mathx.NewRNG(41)
	var buf []*pointcloud.VoxelStats
	nonEmpty := 0
	for i := 0; i < 5000; i++ {
		pose, _ := s.EgoRoute.At(rng.Range(0, s.EgoRoute.Duration()))
		p := pose.Pos.Add(geom.V3(rng.Range(-20, 20), rng.Range(-20, 20), rng.Range(-1, 6)))
		buf = m.Direct7(p, buf[:0])
		want := direct7Reference(m, p)
		if len(buf) != len(want) {
			t.Fatalf("probe %v: Direct7 found %d voxels, reference %d", p, len(buf), len(want))
		}
		for j := range want {
			if buf[j] != want[j] {
				t.Fatalf("probe %v: Direct7 entry %d differs from the reference", p, j)
			}
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 500 {
		t.Fatalf("only %d of 5000 probes touched a usable voxel", nonEmpty)
	}
}

func TestDirect7ZeroAlloc(t *testing.T) {
	m, s := sharedMap(t)
	pose, _ := s.EgoRoute.At(45)
	probe := pose.Pos.Add(geom.V3(0, 0, 0.3))
	buf := make([]*pointcloud.VoxelStats, 0, 7)
	allocs := testing.AllocsPerRun(100, func() { buf = m.Direct7(probe, buf[:0]) })
	if allocs != 0 {
		t.Errorf("Direct7 with a reused buffer allocates %v times, want 0", allocs)
	}
}

func TestCoverageOffMapIsZero(t *testing.T) {
	m, s := sharedMap(t)
	// The same route, shifted 1 km past the mapped city.
	wps := s.EgoRoute.Waypoints()
	shift := geom.V2(1000, 1000)
	b := world.NewRouteBuilder(wps[0].Add(shift), 0)
	for _, w := range wps[1:] {
		b.DriveTo(w.Add(shift), 10)
	}
	off := *s
	off.EgoRoute = b.Build()
	if cov := m.Coverage(&off, 50); cov != 0 {
		t.Errorf("coverage of a route 1 km off the map = %v, want 0", cov)
	}
}

func BenchmarkDirect7(b *testing.B) {
	cfg := DefaultConfig()
	cfg.ScanSpacing = 10
	s := world.NewScenario(world.DefaultScenarioConfig())
	m, err := Build(s, cfg)
	if err != nil {
		b.Fatal(err)
	}
	const probes = 1024
	ps := make([]geom.Vec3, probes)
	for i := range ps {
		pose, _ := s.EgoRoute.At(s.EgoRoute.Duration() * float64(i) / probes)
		ps[i] = pose.Pos.Add(geom.V3(float64(i%7)-3, float64(i%5)-2, 0.5))
	}
	buf := make([]*pointcloud.VoxelStats, 0, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.Direct7(ps[i%probes], buf[:0])
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := t.TempDir() + "/junk"
	if err := os.WriteFile(path, []byte("not a map"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("garbage file should fail to load")
	}
	if _, err := LoadFile(path + "/missing"); err == nil {
		t.Error("missing file should fail to load")
	}
}
