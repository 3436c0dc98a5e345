package world

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestBuildScenarioEdgeCases pins the generator contract: every config
// either yields a valid drivable scenario or a named sentinel error —
// never a panic. The table walks the degenerate corners the adversarial
// search and the params fuzzer can reach.
func TestBuildScenarioEdgeCases(t *testing.T) {
	base := DefaultScenarioConfig()
	mod := func(f func(*ScenarioConfig)) ScenarioConfig {
		cfg := base
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name    string
		cfg     ScenarioConfig
		wantErr error // nil means the config must build
	}{
		{"default", base, nil},
		{"zero traffic", mod(func(c *ScenarioConfig) {
			c.NumCars, c.NumPedestrians, c.NumCyclists = 0, 0, 0
		}), nil},
		{"minimum city", mod(func(c *ScenarioConfig) { c.City.Blocks = 3 }), nil},
		{"zero building density", mod(func(c *ScenarioConfig) { c.City.BuildingDensity = 0 }), nil},
		{"full building density", mod(func(c *ScenarioConfig) { c.City.BuildingDensity = 1 }), nil},
		{"split streams", mod(func(c *ScenarioConfig) { c.SplitStreams = true }), nil},
		{"burst", mod(func(c *ScenarioConfig) {
			c.Burst = PedBurst{Count: 12, Street: 2, Radius: 10, Stagger: 1}
		}), nil},
		{"one block city", mod(func(c *ScenarioConfig) { c.City.Blocks = 1 }), ErrCityTooSmall},
		{"two block city", mod(func(c *ScenarioConfig) { c.City.Blocks = 2 }), ErrCityTooSmall},
		{"zero blocks", mod(func(c *ScenarioConfig) { c.City.Blocks = 0 }), ErrCityConfig},
		{"negative blocks", mod(func(c *ScenarioConfig) { c.City.Blocks = -4 }), ErrCityConfig},
		{"huge city", mod(func(c *ScenarioConfig) { c.City.Blocks = maxBlocks + 1 }), ErrCityConfig},
		{"zero block size", mod(func(c *ScenarioConfig) { c.City.BlockSize = 0 }), ErrCityConfig},
		{"nan block size", mod(func(c *ScenarioConfig) { c.City.BlockSize = math.NaN() }), ErrCityConfig},
		{"street wider than block", mod(func(c *ScenarioConfig) {
			c.City.StreetWidth = c.City.BlockSize
		}), ErrCityConfig},
		{"negative street", mod(func(c *ScenarioConfig) { c.City.StreetWidth = -1 }), ErrCityConfig},
		{"density above one", mod(func(c *ScenarioConfig) { c.City.BuildingDensity = 1.1 }), ErrCityConfig},
		{"inf density", mod(func(c *ScenarioConfig) { c.City.BuildingDensity = math.Inf(1) }), ErrCityConfig},
		{"negative cars", mod(func(c *ScenarioConfig) { c.NumCars = -1 }), ErrTrafficConfig},
		{"too many pedestrians", mod(func(c *ScenarioConfig) {
			c.NumPedestrians = maxTrafficActors + 1
		}), ErrTrafficConfig},
		{"zero ego speed", mod(func(c *ScenarioConfig) { c.EgoSpeed = 0 }), ErrEgoConfig},
		{"negative ego speed", mod(func(c *ScenarioConfig) { c.EgoSpeed = -5 }), ErrEgoConfig},
		{"nan ego speed", mod(func(c *ScenarioConfig) { c.EgoSpeed = math.NaN() }), ErrEgoConfig},
		{"supersonic ego", mod(func(c *ScenarioConfig) { c.EgoSpeed = 300 }), ErrEgoConfig},
		{"burst street outside city", mod(func(c *ScenarioConfig) {
			c.Burst = PedBurst{Count: 5, Street: c.City.Blocks, Radius: 10, Stagger: 1}
		}), ErrBurstConfig},
		{"burst zero radius", mod(func(c *ScenarioConfig) {
			c.Burst = PedBurst{Count: 5, Street: 2, Radius: 0, Stagger: 1}
		}), ErrBurstConfig},
		{"burst negative count", mod(func(c *ScenarioConfig) {
			c.Burst = PedBurst{Count: -2, Street: 2, Radius: 10, Stagger: 1}
		}), ErrBurstConfig},
		{"noise drop too high", mod(func(c *ScenarioConfig) {
			c.Noise = NoiseProfile{Name: "storm", LiDARDrop: 0.95}
		}), ErrNoiseConfig},
		{"noise bad name", mod(func(c *ScenarioConfig) {
			c.Noise = NoiseProfile{Name: "Heavy Rain!", LiDARRange: 2}
		}), ErrNoiseConfig},
		{"noise nan scale", mod(func(c *ScenarioConfig) {
			c.Noise = NoiseProfile{Name: "x", LiDARRange: math.NaN()}
		}), ErrNoiseConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := BuildScenario(tc.cfg) // must never panic
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			// Drivability: a positive-duration ego lap and in-bounds actors.
			if s.Duration() <= 0 {
				t.Fatalf("ego lap duration = %v", s.Duration())
			}
			size := s.City.Size()
			snap := s.At(s.Duration() / 3)
			for _, a := range snap.Actors {
				p := a.Pose.XY()
				if p.X < -1 || p.Y < -1 || p.X > size+1 || p.Y > size+1 {
					t.Fatalf("actor %d out of city: %v", a.ID, p)
				}
			}
		})
	}
}

// TestLegacySharedStreamUnchanged pins that the stream refactor did not
// move a single draw on the scripted default path: the golden report
// hashes depend on this placement bit-for-bit.
func TestLegacySharedStreamUnchanged(t *testing.T) {
	s := NewScenario(DefaultScenarioConfig())
	snap := s.At(100)
	if len(snap.Actors) != 22+18+6 {
		t.Fatalf("actor count = %d", len(snap.Actors))
	}
	// First traffic car's pose at t=100, captured before the refactor.
	got := snap.Actors[0].Pose.XY()
	const wantX, wantY = 299.24438328488623, 303
	if math.Abs(got.X-wantX) > 1e-9 || math.Abs(got.Y-wantY) > 1e-9 {
		t.Fatalf("first car at t=100 moved: got (%v, %v), want (%v, %v) — legacy RNG draw order changed",
			got.X, got.Y, wantX, wantY)
	}
}

// TestSplitStreamsIsolateConcerns is the satellite fix's contract:
// with SplitStreams set, mutating one population knob cannot reshuffle
// the placement of another concern's actors.
func TestSplitStreamsIsolateConcerns(t *testing.T) {
	base := DefaultScenarioConfig()
	base.SplitStreams = true
	base.Burst = PedBurst{Count: 8, Street: 3, Radius: 12, Stagger: 0.7}

	build := func(f func(*ScenarioConfig)) *Scenario {
		cfg := base
		f(&cfg)
		s, err := BuildScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := build(func(*ScenarioConfig) {})

	samePoses := func(t *testing.T, a, b *Scenario, ids []int) {
		t.Helper()
		for _, ts := range []float64{0, 31.7, 150} {
			sa, sb := a.At(ts), b.At(ts)
			pose := func(snap Snapshot, id int) (p [2]float64, ok bool) {
				for _, ac := range snap.Actors {
					if ac.ID == id {
						return [2]float64{ac.Pose.XY().X, ac.Pose.XY().Y}, true
					}
				}
				return p, false
			}
			for _, id := range ids {
				pa, oka := pose(sa, id)
				pb, okb := pose(sb, id)
				if !oka || !okb {
					t.Fatalf("actor %d missing at t=%v", id, ts)
				}
				if pa != pb {
					t.Fatalf("actor %d moved at t=%v: %v vs %v", id, ts, pa, pb)
				}
			}
		}
	}
	carIDs := make([]int, base.NumCars)
	for i := range carIDs {
		carIDs[i] = 1 + i // no lead vehicle: cars are ids 1..NumCars
	}

	// Halving pedestrians must not move a single car.
	b := build(func(c *ScenarioConfig) { c.NumPedestrians = 4 })
	samePoses(t, a, b, carIDs)

	// Dropping cyclists must not move cars either.
	c := build(func(c *ScenarioConfig) { c.NumCyclists = 0 })
	samePoses(t, a, c, carIDs)

	// Without split streams the legacy shared stream *does* reshuffle —
	// guard against the test silently passing for the wrong reason.
	legacyA := build(func(c *ScenarioConfig) { c.SplitStreams = false; c.Burst = PedBurst{} })
	legacyB := build(func(c *ScenarioConfig) {
		c.SplitStreams = false
		c.Burst = PedBurst{}
		c.NumCars = base.NumCars - 1
	})
	sa, sb := legacyA.At(50), legacyB.At(50)
	// Pedestrians start after the cars; with one car fewer the shared
	// stream shifts every subsequent draw.
	pedA := sa.Actors[base.NumCars].Pose.XY()
	pedB := sb.Actors[base.NumCars-1].Pose.XY()
	if pedA == pedB {
		t.Fatal("legacy shared stream unexpectedly isolates concerns; split-stream test is vacuous")
	}
}

// TestFurnitureSeedIsolatesPoles: with a furniture seed, mutating
// building density must not move street poles (and the same furniture
// seed must yield the same poles under different layout seeds).
func TestFurnitureSeedIsolatesPoles(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.FurnitureSeed = 0xBEEF
	poles := func(c *City) [][2]float64 {
		var out [][2]float64
		for _, b := range c.Buildings {
			sz := b.Box.Max.Sub(b.Box.Min)
			if sz.Z == 6 && sz.X < 1 { // pole footprint, not a building
				out = append(out, [2]float64{b.Box.Min.X, b.Box.Min.Y})
			}
		}
		return out
	}
	a, err := BuildCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.BuildingDensity = 0.3
	cfg2.Seed = 0x1234
	b, err := BuildCity(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := poles(a), poles(b)
	if len(pa) == 0 || len(pa) != len(pb) {
		t.Fatalf("pole counts: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("pole %d moved with building density: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	for _, space := range []ParamSpace{DefaultSpace(), CompactSpace()} {
		for seed := uint64(0); seed < 40; seed++ {
			a, err := Generate(space, seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			b, err := Generate(space, seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if a != b {
				t.Fatalf("seed %d: generation not deterministic:\n%+v\n%+v", seed, a, b)
			}
			if !a.SplitStreams || a.City.FurnitureSeed == 0 {
				t.Fatalf("seed %d: generated config must split streams and own a furniture seed", seed)
			}
			if _, err := BuildScenario(a); err != nil {
				t.Fatalf("seed %d: generated config does not build: %v", seed, err)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	space := DefaultSpace()
	a, _ := Generate(space, 1)
	b, _ := Generate(space, 2)
	if a == b {
		t.Fatal("distinct seeds produced identical configs")
	}
}

func TestGenerateRejectsBadSpace(t *testing.T) {
	cases := map[string]func(*ParamSpace){
		"inverted blocks":   func(s *ParamSpace) { s.Blocks = IntSpan{6, 3} },
		"tiny blocks":       func(s *ParamSpace) { s.Blocks = IntSpan{1, 4} },
		"nan ego span":      func(s *ParamSpace) { s.EgoSpeed = Span{math.NaN(), 10} },
		"negative prob":     func(s *ParamSpace) { s.BurstProb = -0.5 },
		"empty weather":     func(s *ParamSpace) { s.Weather = nil },
		"invalid weather":   func(s *ParamSpace) { s.Weather = []NoiseProfile{{Name: "BAD NAME"}} },
		"inverted ego span": func(s *ParamSpace) { s.EgoSpeed = Span{12, 6} },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			space := DefaultSpace()
			f(&space)
			if _, err := Generate(space, 1); !errors.Is(err, ErrSpaceConfig) {
				t.Fatalf("err = %v, want ErrSpaceConfig", err)
			}
		})
	}
}

func TestSpaceByName(t *testing.T) {
	cases := []struct {
		name string
		want func() ParamSpace // nil: rejected
	}{
		{"default", DefaultSpace},
		{"compact", CompactSpace},
		{"", nil},
		{"Default", nil},
		{"huge", nil},
	}
	for _, c := range cases {
		got, err := SpaceByName(c.name)
		if c.want == nil {
			if !errors.Is(err, ErrSpaceConfig) {
				t.Errorf("SpaceByName(%q) err = %v, want ErrSpaceConfig", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("SpaceByName(%q) = %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want()) {
			t.Errorf("SpaceByName(%q) returned a different space", c.name)
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	configs := []ScenarioConfig{DefaultScenarioConfig()}
	space := DefaultSpace()
	for seed := uint64(0); seed < 30; seed++ {
		cfg, err := Generate(space, seed)
		if err != nil {
			t.Fatal(err)
		}
		configs = append(configs, cfg)
	}
	for i, cfg := range configs {
		line := MarshalParams(cfg)
		back, err := ParseParams(line)
		if err != nil {
			t.Fatalf("config %d: parse(%q): %v", i, line, err)
		}
		if back != cfg {
			t.Fatalf("config %d: round-trip mismatch\nline: %s\ngot:  %+v\nwant: %+v", i, line, back, cfg)
		}
		if again := MarshalParams(back); again != line {
			t.Fatalf("config %d: marshal not canonical:\n%s\n%s", i, line, again)
		}
	}
}

func TestParseParamsRejects(t *testing.T) {
	cases := map[string]string{
		"empty":               "",
		"whitespace only":     "   \t ",
		"bare token":          "blocks",
		"unknown key":         "blocks=8 size=100 street=14 density=0.5 cityseed=0x1 seed=0x2 cars=1 peds=0 cyclists=0 ego=9 warp=1",
		"duplicate key":       "blocks=8 blocks=9",
		"bad int":             "blocks=eight",
		"bad float":           "blocks=8 size=wide",
		"bad seed":            "blocks=8 cityseed=0xZZ",
		"bad flag":            "blocks=8 lead=yes",
		"zero furniture seed": "blocks=8 furnitureseed=0x0",
		"orphan burst street": "blocks=8 size=100 street=14 density=0.5 cityseed=0x1 seed=0x2 cars=1 peds=0 cyclists=0 ego=9 burststreet=2",
		"orphan noise":        "blocks=8 size=100 street=14 density=0.5 cityseed=0x1 seed=0x2 cars=1 peds=0 cyclists=0 ego=9 lidarnoise=2",
		"weather bad name":    "blocks=8 size=100 street=14 density=0.5 cityseed=0x1 seed=0x2 cars=1 peds=0 cyclists=0 ego=9 weather=Rain lidarnoise=2",
		"city too small":      "blocks=1 size=100 street=14 density=0.5 cityseed=0x1 seed=0x2 cars=1 peds=0 cyclists=0 ego=9",
		"missing required":    "lead=1",
	}
	for name, line := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseParams(line); err == nil {
				t.Fatalf("ParseParams(%q) accepted invalid input", line)
			}
		})
	}
}
