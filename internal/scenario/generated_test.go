package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/parallel"
	"repro/internal/world"
)

// TestGeneratedRegistry pins the contract of the pinned-scenario
// registry: at least one search winner is committed, every spec
// carries its generated world, resolves through ByName, appears in
// Names after the builtins, and fits the golden drive horizon.
func TestGeneratedRegistry(t *testing.T) {
	specs, err := Generated()
	if err != nil {
		t.Fatalf("Generated() = %v; every committed pin must parse", err)
	}
	if len(specs) == 0 {
		t.Fatal("no generated scenarios embedded; expected at least the first pinned search winner")
	}
	names := Names()
	builtinCount := len(builtins())
	if len(names) != builtinCount+len(specs) {
		t.Fatalf("Names() has %d entries, want %d builtins + %d generated", len(names), builtinCount, len(specs))
	}
	for i, spec := range specs {
		if spec.World == nil {
			t.Fatalf("%s: generated spec without a world", spec.Name)
		}
		if err := spec.World.Validate(); err != nil {
			t.Fatalf("%s: pinned world invalid: %v", spec.Name, err)
		}
		if !spec.Guard || !spec.Supervise {
			t.Fatalf("%s: generated specs must measure the hardened stack (guard+supervise)", spec.Name)
		}
		if min := spec.MinDuration(); min > transportGoldenDuration {
			t.Fatalf("%s: horizon %v exceeds the golden drive %v", spec.Name, min, transportGoldenDuration)
		}
		got, err := ByName(spec.Name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", spec.Name, err)
		}
		if got.Name != spec.Name || *got.World != *spec.World {
			t.Fatalf("%s: ByName returned a different spec", spec.Name)
		}
		if names[builtinCount+i] != spec.Name {
			t.Fatalf("Names()[%d] = %s, want %s (generated after builtins)", builtinCount+i, names[builtinCount+i], spec.Name)
		}
	}
}

// TestSpecConfigWorld pins that a spec's stack configuration drives
// the spec's own world: every pinned generated spec carries its world
// into Spec.Config, and a builtin gets the scripted default.
func TestSpecConfigWorld(t *testing.T) {
	generated, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range generated {
		if got := spec.Config(autoware.DetectorSSD300).Scenario; !reflect.DeepEqual(got, *spec.World) {
			t.Errorf("%s: Config world differs from the spec's world", spec.Name)
		}
	}
	for _, spec := range builtins() {
		if got := spec.Config(autoware.DetectorSSD300).Scenario; !reflect.DeepEqual(got, world.DefaultScenarioConfig()) {
			t.Errorf("%s: Config world is not the scripted default", spec.Name)
		}
	}
}

// TestGeneratedScenarioWorkerInvariance extends the worker-invariance
// contract to procedurally generated worlds: for three sampled seeds,
// a full-stack drive through the generated scenario must produce a
// bit-exact latency fingerprint on 1, 2 and 8 workers. Generated
// worlds exercise split RNG streams, pedestrian bursts and weather
// noise — none of which may leak host scheduling into virtual time.
func TestGeneratedScenarioWorkerInvariance(t *testing.T) {
	const duration = 6 * time.Second // short drives: the compact space keeps cities small
	for _, seed := range []uint64{11, 22, 33} {
		cfg, err := world.Generate(world.CompactSpace(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		acfg := Spec{World: &cfg, Guard: true}.Config(autoware.DetectorSSD300)
		scen, m, err := autoware.BuildEnv(acfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		run := func(workers int) string {
			prev := parallel.MaxWorkers()
			parallel.SetMaxWorkers(workers)
			defer parallel.SetMaxWorkers(prev)
			st, err := autoware.BuildWithMap(acfg, scen, m)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			st.Run(duration)
			return st.Recorder.Fingerprint()
		}

		ref := run(1)
		for _, workers := range []int{2, 8} {
			if got := run(workers); got != ref {
				t.Errorf("seed %d: fingerprint diverged between 1 and %d workers", seed, workers)
			}
		}
	}
}
