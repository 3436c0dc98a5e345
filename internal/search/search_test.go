package search

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/mathx"
	"repro/internal/scenario"
	"repro/internal/world"
)

func testCandidate(t *testing.T) scenario.Candidate {
	t.Helper()
	w, err := world.Generate(world.CompactSpace(), 7)
	if err != nil {
		t.Fatal(err)
	}
	return scenario.Candidate{
		Name:      "gen-test-case",
		World:     w,
		FaultSeed: 0xFEED,
		Faults: []faults.Fault{
			{Kind: faults.KindContention, Start: 4 * time.Second, Duration: 2 * time.Second,
				Workers: 2, Load: 4e-3, Bandwidth: 2e9},
			{Kind: faults.KindDrop, Topic: "/points_raw",
				Start: 4 * time.Second, Duration: 2 * time.Second, Prob: 0.25},
		},
	}
}

func TestCandidateCodecRoundTrip(t *testing.T) {
	cases := []scenario.Candidate{
		testCandidate(t),
		{Name: "clean-world", World: world.DefaultScenarioConfig()},
	}
	for _, c := range cases {
		text := scenario.MarshalCandidate(c)
		back, err := scenario.ParseCandidate(text)
		if err != nil {
			t.Fatalf("%s: parse:\n%s\n%v", c.Name, text, err)
		}
		if back.Name != c.Name || back.World != c.World || back.FaultSeed != c.FaultSeed ||
			len(back.Faults) != len(c.Faults) {
			t.Fatalf("%s: round-trip mismatch\ngot:  %+v\nwant: %+v", c.Name, back, c)
		}
		for i := range c.Faults {
			if back.Faults[i] != c.Faults[i] {
				t.Fatalf("%s: fault %d mismatch: %+v vs %+v", c.Name, i, back.Faults[i], c.Faults[i])
			}
		}
		if again := scenario.MarshalCandidate(back); again != text {
			t.Fatalf("%s: marshal not canonical:\n%s\n%s", c.Name, text, again)
		}
	}
	// Comments and blank lines are tolerated.
	withComments := "# pinned by search\n\n" + scenario.MarshalCandidate(cases[0])
	if _, err := scenario.ParseCandidate(withComments); err != nil {
		t.Fatalf("commented candidate rejected: %v", err)
	}
}

func TestParseCandidateRejects(t *testing.T) {
	valid := scenario.MarshalCandidate(testCandidate(t))
	cases := map[string]string{
		"empty":               "",
		"missing world":       "name gen-x\n",
		"missing name":        "world blocks=8 size=100 street=14 density=0.85 cityseed=0xa07a0 seed=0x5ce11a cars=22 peds=18 cyclists=6 ego=9\n",
		"bad name":            "name GEN X\nworld blocks=8 size=100 street=14 density=0.85 cityseed=0xa07a0 seed=0x5ce11a cars=22 peds=18 cyclists=6 ego=9\n",
		"duplicate name":      "name gen-a\nname gen-b\n" + valid,
		"bad world":           "name gen-x\nworld blocks=zero\n",
		"bad fault":           "name gen-x\nworld blocks=8 size=100 street=14 density=0.85 cityseed=0xa07a0 seed=0x5ce11a cars=22 peds=18 cyclists=6 ego=9\nfaultseed 0x1\nfault kind=gremlin dur=5s\n",
		"faults without seed": "name gen-x\nworld blocks=8 size=100 street=14 density=0.85 cityseed=0xa07a0 seed=0x5ce11a cars=22 peds=18 cyclists=6 ego=9\nfault kind=crash node=x dur=5s\n",
		"seed without faults": "name gen-x\nworld blocks=8 size=100 street=14 density=0.85 cityseed=0xa07a0 seed=0x5ce11a cars=22 peds=18 cyclists=6 ego=9\nfaultseed 0x1\n",
		"bad seed":            "name gen-x\nworld blocks=8 size=100 street=14 density=0.85 cityseed=0xa07a0 seed=0x5ce11a cars=22 peds=18 cyclists=6 ego=9\nfaultseed 12\nfault kind=crash node=x dur=5s\n",
		"unknown line":        "name gen-x\nwarp 9\n" + valid,
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := scenario.ParseCandidate(text); err == nil {
				t.Fatalf("ParseCandidate accepted:\n%s", text)
			}
		})
	}
	if _, err := scenario.ParseCandidate("name gen-a\nname gen-b\n"); !errors.Is(err, scenario.ErrCandidate) {
		t.Fatalf("err = %v, want ErrCandidate", err)
	}
}

// TestCandidateSequenceDeterministic pins that the sampling/mutation
// stream — the part of the search that is cheap to rerun — produces an
// identical candidate sequence for a given seed, including the adaptive
// exploit branch.
func TestCandidateSequenceDeterministic(t *testing.T) {
	space := world.CompactSpace()
	gen := func() []string {
		root := mathx.NewRNG(42 ^ searchSalt)
		best := testCandidate(t)
		var out []string
		for i := 1; i <= 8; i++ {
			stream := root.Split()
			var c scenario.Candidate
			var err error
			if i%2 == 1 {
				c, err = sample(space, stream, 10*time.Second, i)
			} else {
				c, err = mutate(best, space, stream, 10*time.Second, i)
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, scenario.MarshalCandidate(c))
		}
		return out
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate %d differs between identical seeds:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestSampledCandidatesAreRunnable walks many sampled and mutated
// candidates through full validation (world build + schedule validate)
// without ever evaluating them — the search must not burn budget on
// structurally invalid candidates.
func TestSampledCandidatesAreRunnable(t *testing.T) {
	for _, space := range []world.ParamSpace{world.DefaultSpace(), world.CompactSpace()} {
		root := mathx.NewRNG(7 ^ searchSalt)
		best := testCandidate(t)
		for i := 1; i <= 60; i++ {
			stream := root.Split()
			var c scenario.Candidate
			var err error
			if i%2 == 1 {
				c, err = sample(space, stream, 8*time.Second, i)
			} else {
				c, err = mutate(best, space, stream, 8*time.Second, i)
			}
			if err != nil {
				t.Fatalf("candidate %d: %v", i, err)
			}
			if _, err := world.BuildScenario(c.World); err != nil {
				t.Fatalf("candidate %d world does not build: %v\n%s", i, err, scenario.MarshalCandidate(c))
			}
			if len(c.Faults) > 0 {
				if err := c.Schedule().Validate(); err != nil {
					t.Fatalf("candidate %d schedule invalid: %v\n%s", i, err, scenario.MarshalCandidate(c))
				}
				for _, f := range c.Faults {
					if f.End()+time.Second > 8*time.Second {
						t.Fatalf("candidate %d fault window %v overruns the drive", i, f.End())
					}
				}
			}
			best = c // keep the mutation path exercised on fresh material
		}
	}
}

// TestSearchRunDeterministic runs a tiny real search twice and demands
// byte-identical reports — the reproducibility contract behind
// `characterize -exp search` and the search-smoke CI job.
func TestSearchRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack search in -short mode")
	}
	cfg := Config{
		Space:     world.CompactSpace(),
		SpaceName: "compact",
		Seed:      3,
		Budget:    3,
		Duration:  7 * time.Second,
		Detector:  autoware.DetectorSSD300,
	}
	run := func() []byte {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := run()
	b := run()
	if string(a) != string(b) {
		t.Fatalf("identical configs produced different reports:\n%s\n---\n%s", a, b)
	}
	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Worst.Name == "" || !rep.Worst.Feasible {
		t.Fatalf("worst candidate missing or infeasible: %+v", rep.Worst)
	}
	if rep.Worst.P99 < rep.Baseline.P99 {
		t.Fatalf("worst p99 %v below baseline %v — baseline must floor the election", rep.Worst.P99, rep.Baseline.P99)
	}
	if c, ok := rep.WorstCandidate(); !ok || c.Name != rep.Worst.Name {
		t.Fatalf("WorstCandidate() = %+v, %v", c, ok)
	}
}

func TestSearchRunRejectsBadConfig(t *testing.T) {
	base := Config{
		Space:    world.CompactSpace(),
		Seed:     1,
		Budget:   2,
		Duration: 8 * time.Second,
		Detector: autoware.DetectorSSD300,
	}
	short := base
	short.Duration = 2 * time.Second
	if _, err := Run(short); err == nil {
		t.Fatal("short duration accepted")
	}
	tiny := base
	tiny.Budget = 1
	if _, err := Run(tiny); err == nil {
		t.Fatal("budget 1 accepted")
	}
	bad := base
	bad.Space.Weather = nil
	if _, err := Run(bad); !errors.Is(err, world.ErrSpaceConfig) {
		t.Fatalf("err = %v, want ErrSpaceConfig", err)
	}
}
