package world

import (
	"fmt"

	"repro/internal/mathx"
)

// Span is a closed floating-point sampling interval.
type Span struct {
	Min, Max float64
}

// IntSpan is a closed integer sampling interval.
type IntSpan struct {
	Min, Max int
}

// ParamSpace bounds the procedural scenario generator: every knob the
// generator samples is drawn from one of these intervals. The space is
// also the mutation domain for the adversarial search — mutations clamp
// back into it, so the search can never wander into configs the
// generator itself would not produce.
type ParamSpace struct {
	Blocks          IntSpan
	BlockSize       Span
	StreetWidth     Span
	BuildingDensity Span

	Cars        IntSpan
	Pedestrians IntSpan
	Cyclists    IntSpan
	EgoSpeed    Span

	// LeadVehicleProb is the chance the sampled drive includes a lead
	// vehicle on the ego route.
	LeadVehicleProb float64

	// BurstProb is the chance the sampled scenario includes a
	// pedestrian burst; when it does, the burst knobs come from the
	// spans below (the street index is drawn from the city interior).
	BurstProb    float64
	BurstCount   IntSpan
	BurstRadius  Span
	BurstStagger Span

	// Weather is the menu of noise profiles sampled uniformly. Entry 0
	// should be the clear-weather zero value so a share of sampled
	// scenarios stay noise-free.
	Weather []NoiseProfile
}

// DefaultSpace is the full-size sampling space: cities the scale of the
// scripted default, traffic volumes bracketing it on both sides, and a
// weather menu from clear to heavy rain.
func DefaultSpace() ParamSpace {
	return ParamSpace{
		Blocks:          IntSpan{5, 10},
		BlockSize:       Span{70, 130},
		StreetWidth:     Span{10, 18},
		BuildingDensity: Span{0.4, 1},
		Cars:            IntSpan{4, 48},
		Pedestrians:     IntSpan{0, 40},
		Cyclists:        IntSpan{0, 12},
		EgoSpeed:        Span{6, 14},
		LeadVehicleProb: 0.35,
		BurstProb:       0.5,
		BurstCount:      IntSpan{8, 40},
		BurstRadius:     Span{6, 30},
		BurstStagger:    Span{0.2, 2.5},
		Weather:         WeatherMenu(),
	}
}

// CompactSpace is a small-city variant of DefaultSpace for CI and smoke
// runs: the same knob structure over cheaper worlds (fewer buildings to
// raycast, shorter ego laps), so tests exercise the full generate→
// simulate→score path in seconds instead of minutes.
func CompactSpace() ParamSpace {
	s := DefaultSpace()
	s.Blocks = IntSpan{3, 5}
	s.BlockSize = Span{60, 90}
	s.Cars = IntSpan{2, 16}
	s.Pedestrians = IntSpan{0, 16}
	s.Cyclists = IntSpan{0, 6}
	s.BurstCount = IntSpan{4, 16}
	return s
}

// SpaceByName resolves a sampling space by name: "default" or
// "compact". Any other name is an error wrapping ErrSpaceConfig.
func SpaceByName(name string) (ParamSpace, error) {
	switch name {
	case "default":
		return DefaultSpace(), nil
	case "compact":
		return CompactSpace(), nil
	}
	return ParamSpace{}, fmt.Errorf("%w: unknown space %q (have default, compact)", ErrSpaceConfig, name)
}

// WeatherMenu returns the built-in noise-profile menu: clear weather
// first (the zero value), then progressively sensor-hostile conditions.
// Multipliers scale stock sensor noise; drop is added LiDAR return loss.
func WeatherMenu() []NoiseProfile {
	return []NoiseProfile{
		{}, // clear — stock sensors
		{Name: "drizzle", LiDARRange: 1.5, LiDARDrop: 0.03, CameraPixel: 1.3},
		{Name: "rain", LiDARRange: 2.5, LiDARDrop: 0.1, CameraPixel: 2},
		{Name: "heavy-rain", LiDARRange: 4, LiDARDrop: 0.25, CameraPixel: 3},
		{Name: "fog", LiDARRange: 6, LiDARDrop: 0.4, CameraPixel: 2.5},
	}
}

// Validate rejects degenerate sampling spaces (empty intervals,
// inverted bounds, menus with invalid profiles). Every violation wraps
// ErrSpaceConfig.
func (sp ParamSpace) Validate() error {
	intSpans := []struct {
		name string
		s    IntSpan
		min  int
	}{
		{"blocks", sp.Blocks, 3},
		{"cars", sp.Cars, 0},
		{"pedestrians", sp.Pedestrians, 0},
		{"cyclists", sp.Cyclists, 0},
		{"burst count", sp.BurstCount, 0},
	}
	for _, is := range intSpans {
		if is.s.Min > is.s.Max || is.s.Min < is.min {
			return fmt.Errorf("%w: %s span [%d, %d] invalid (min %d)",
				ErrSpaceConfig, is.name, is.s.Min, is.s.Max, is.min)
		}
	}
	spans := []struct {
		name string
		s    Span
	}{
		{"block size", sp.BlockSize},
		{"street width", sp.StreetWidth},
		{"building density", sp.BuildingDensity},
		{"ego speed", sp.EgoSpeed},
		{"burst radius", sp.BurstRadius},
		{"burst stagger", sp.BurstStagger},
	}
	for _, fs := range spans {
		if !isFinite(fs.s.Min) || !isFinite(fs.s.Max) || fs.s.Min > fs.s.Max {
			return fmt.Errorf("%w: %s span [%v, %v] invalid",
				ErrSpaceConfig, fs.name, fs.s.Min, fs.s.Max)
		}
	}
	if sp.LeadVehicleProb < 0 || sp.LeadVehicleProb > 1 || !isFinite(sp.LeadVehicleProb) {
		return fmt.Errorf("%w: lead-vehicle probability %v outside [0, 1]", ErrSpaceConfig, sp.LeadVehicleProb)
	}
	if sp.BurstProb < 0 || sp.BurstProb > 1 || !isFinite(sp.BurstProb) {
		return fmt.Errorf("%w: burst probability %v outside [0, 1]", ErrSpaceConfig, sp.BurstProb)
	}
	if len(sp.Weather) == 0 {
		return fmt.Errorf("%w: empty weather menu", ErrSpaceConfig)
	}
	for i, n := range sp.Weather {
		if err := n.Validate(); err != nil {
			return fmt.Errorf("%w: weather[%d]: %v", ErrSpaceConfig, i, err)
		}
	}
	return nil
}

// genSalt decorrelates generator streams from any other consumer of the
// same seed (the simulation itself, the search harness's own streams).
const genSalt = 0x6E65A7E5CE11A

// Generate deterministically samples a scenario config from the space.
// Layout, traffic, and weather knobs each come from an independent
// child stream of the seed, so two generated scenarios that happen to
// share, say, the same city layout draw their traffic from identical
// distributions — and a future space change to one concern's spans
// cannot reshuffle the others. Generated configs always split the
// in-scenario RNG streams and give street furniture its own seed; the
// returned config passes Validate by construction.
func Generate(space ParamSpace, seed uint64) (ScenarioConfig, error) {
	if err := space.Validate(); err != nil {
		return ScenarioConfig{}, err
	}
	root := mathx.NewRNG(seed ^ genSalt)
	layout, traffic, weather := root.Split(), root.Split(), root.Split()

	cfg := ScenarioConfig{
		City: CityConfig{
			Blocks:          space.Blocks.sample(layout),
			BlockSize:       roundKnob(space.BlockSize.sample(layout)),
			Seed:            layout.Uint64(),
			BuildingDensity: roundKnob(space.BuildingDensity.sample(layout)),
			FurnitureSeed:   layout.Uint64() | 1, // nonzero: own pole stream
		},
		Seed:           traffic.Uint64(),
		NumCars:        space.Cars.sample(traffic),
		NumPedestrians: space.Pedestrians.sample(traffic),
		NumCyclists:    space.Cyclists.sample(traffic),
		EgoSpeed:       roundKnob(space.EgoSpeed.sample(traffic)),
		LeadVehicle:    traffic.Bool(space.LeadVehicleProb),
		SplitStreams:   true,
	}
	// Street width is bounded by the sampled block size; clamp the span
	// so tight spaces cannot produce an invalid pair.
	swMax := space.StreetWidth.Max
	if lim := cfg.City.BlockSize * 0.4; swMax > lim {
		swMax = lim
	}
	cfg.City.StreetWidth = roundKnob(Span{space.StreetWidth.Min, swMax}.sample(layout))

	if traffic.Bool(space.BurstProb) {
		cfg.Burst = PedBurst{
			Count:   space.BurstCount.sample(traffic),
			Street:  1 + traffic.Intn(cfg.City.Blocks-1),
			Radius:  roundKnob(space.BurstRadius.sample(traffic)),
			Stagger: roundKnob(space.BurstStagger.sample(traffic)),
		}
		if cfg.Burst.Radius > cfg.City.BlockSize {
			cfg.Burst.Radius = cfg.City.BlockSize
		}
	}
	cfg.Noise = space.Weather[weather.Intn(len(space.Weather))]

	if err := cfg.Validate(); err != nil {
		// A validated space must yield valid configs; surfacing the
		// error (rather than panicking) keeps the generator total.
		return ScenarioConfig{}, fmt.Errorf("world: generated config invalid: %w", err)
	}
	return cfg, nil
}

func (s IntSpan) sample(r *mathx.RNG) int {
	if s.Max == s.Min {
		return s.Min
	}
	return s.Min + r.Intn(s.Max-s.Min+1)
}

func (s Span) sample(r *mathx.RNG) float64 {
	if s.Max == s.Min {
		return s.Min
	}
	return r.Range(s.Min, s.Max)
}

// roundKnob quantizes a sampled float knob to 1/1024 so every generated
// value has a short exact decimal/binary form: params files stay
// readable, and marshal→parse→marshal is trivially byte-stable.
func roundKnob(v float64) float64 {
	return float64(int64(v*1024+0.5)) / 1024
}
