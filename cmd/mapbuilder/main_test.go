package main

import (
	"bytes"
	"testing"

	"repro/internal/hdmap"
	"repro/internal/world"
)

// TestVoxelCountsIndependentOfOrder checks the counts mapbuilder prints
// come from a key-ordered walk: a rebuilt and a reloaded map walk the
// same keys in the same ascending order and count the same voxels.
func TestVoxelCountsIndependentOfOrder(t *testing.T) {
	scen := world.NewScenario(world.DefaultScenarioConfig())
	cfg := hdmap.DefaultConfig()
	cfg.ScanSpacing = 20
	a, err := hdmap.Build(scen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hdmap.Build(scen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := hdmap.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	usable := usableVoxels(a)
	if usable == 0 || usable >= a.NDT.Len() {
		t.Fatalf("usable voxels = %d of %d", usable, a.NDT.Len())
	}
	for _, m := range []*hdmap.Map{b, loaded} {
		if m.NDT.Len() != a.NDT.Len() || usableVoxels(m) != usable {
			t.Fatalf("counts %d/%d, want %d/%d", m.NDT.Len(), usableVoxels(m), a.NDT.Len(), usable)
		}
		for i := 0; i < a.NDT.Len(); i++ {
			if m.NDT.Key(i) != a.NDT.Key(i) {
				t.Fatalf("key %d = %v, want %v", i, m.NDT.Key(i), a.NDT.Key(i))
			}
		}
	}
	for i := 1; i < a.NDT.Len(); i++ {
		p, k := a.NDT.Key(i-1), a.NDT.Key(i)
		if p.X > k.X || (p.X == k.X && (p.Y > k.Y || (p.Y == k.Y && p.Z >= k.Z))) {
			t.Fatalf("keys not ascending at %d: %v then %v", i, p, k)
		}
	}
}
