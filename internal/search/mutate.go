package search

import (
	"fmt"
	"time"

	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/mathx"
	"repro/internal/scenario"
	"repro/internal/world"
)

// faultWindowStart matches the builtin chaos scenarios: windows open at
// 4 s, past the 3 s measurement warmup, so faulted and clean intervals
// of the drive line up.
const faultWindowStart = 4 * time.Second

// sample draws a fresh candidate: a generated world plus a sampled
// fault schedule.
func sample(space world.ParamSpace, r *mathx.RNG, duration time.Duration, idx int) (scenario.Candidate, error) {
	w, err := world.Generate(space, r.Uint64())
	if err != nil {
		return scenario.Candidate{}, err
	}
	c := scenario.Candidate{
		Name:      fmt.Sprintf("gen%02d-explore", idx),
		World:     w,
		FaultSeed: r.Uint64(),
	}
	c.Faults = sampleSchedule(r, duration)
	return c, nil
}

// mutate perturbs the current worst case: re-draw one to three world
// knobs within the space (split RNG streams in the generated world keep
// every untouched concern's placement identical — the property that
// makes the p99 delta attributable to the turned knob), and re-roll or
// intensify the fault schedule.
func mutate(best scenario.Candidate, space world.ParamSpace, r *mathx.RNG, duration time.Duration, idx int) (scenario.Candidate, error) {
	c := scenario.Candidate{
		Name:      fmt.Sprintf("gen%02d-exploit", idx),
		World:     best.World,
		FaultSeed: best.FaultSeed,
		Faults:    append([]faults.Fault(nil), best.Faults...),
	}
	for n := 1 + r.Intn(3); n > 0; n-- {
		mutateWorldKnob(&c.World, space, r)
	}
	fixupWorld(&c.World)
	if err := c.World.Validate(); err != nil {
		return scenario.Candidate{}, err
	}
	switch {
	case r.Bool(0.4):
		// Re-roll the schedule entirely.
		c.FaultSeed = r.Uint64()
		c.Faults = sampleSchedule(r, duration)
	case len(c.Faults) > 0 && r.Bool(0.5):
		intensify(&c.Faults[r.Intn(len(c.Faults))], r)
	}
	return c, nil
}

// mutateWorldKnob re-draws one knob from the space.
func mutateWorldKnob(w *world.ScenarioConfig, space world.ParamSpace, r *mathx.RNG) {
	switch r.Intn(9) {
	case 0:
		w.City.Blocks = sampleInt(space.Blocks, r)
	case 1:
		w.City.BuildingDensity = quantize(sampleSpan(space.BuildingDensity, r))
	case 2:
		w.NumCars = sampleInt(space.Cars, r)
	case 3:
		w.NumPedestrians = sampleInt(space.Pedestrians, r)
	case 4:
		w.NumCyclists = sampleInt(space.Cyclists, r)
	case 5:
		w.EgoSpeed = quantize(sampleSpan(space.EgoSpeed, r))
	case 6:
		// Toggle or re-draw the pedestrian burst.
		if w.Burst.Count != 0 && r.Bool(0.3) {
			w.Burst = world.PedBurst{}
			return
		}
		w.Burst = world.PedBurst{
			Count:   sampleInt(space.BurstCount, r),
			Street:  1, // fixupWorld re-centers into the interior
			Radius:  quantize(sampleSpan(space.BurstRadius, r)),
			Stagger: quantize(sampleSpan(space.BurstStagger, r)),
		}
		if w.City.Blocks > 2 {
			w.Burst.Street = 1 + r.Intn(w.City.Blocks-1)
		}
	case 7:
		w.Seed = r.Uint64() // re-roll traffic placement wholesale
	case 8:
		w.Noise = space.Weather[r.Intn(len(space.Weather))]
	}
}

// fixupWorld clamps cross-knob constraints a single-knob mutation can
// break (burst street inside a shrunken city, radius within the block).
func fixupWorld(w *world.ScenarioConfig) {
	if w.Burst.Count != 0 {
		if max := w.City.Blocks - 1; w.Burst.Street > max && max >= 1 {
			w.Burst.Street = max
		}
		if w.Burst.Radius > w.City.BlockSize {
			w.Burst.Radius = w.City.BlockSize
		}
	}
}

// sampleSchedule draws one or two faults from the menu of perturbations
// the chaos scenarios established, with windows inside [4 s, duration −
// 1 s) so every schedule satisfies the scenario harness's horizon rule.
func sampleSchedule(r *mathx.RNG, duration time.Duration) []faults.Fault {
	maxWin := duration - faultWindowStart - time.Second
	if maxWin < time.Second {
		maxWin = time.Second
	}
	win := func() (time.Duration, time.Duration) {
		d := time.Duration(r.Range(1000, maxWin.Seconds()*1000)) * time.Millisecond
		if d > maxWin {
			d = maxWin
		}
		return faultWindowStart, d
	}
	n := 1
	if r.Bool(0.35) {
		n = 2
	}
	var out []faults.Fault
	for i := 0; i < n; i++ {
		start, dur := win()
		switch r.Intn(6) {
		case 0:
			out = append(out, faults.Fault{
				Kind: faults.KindContention, Start: start, Duration: dur,
				Workers:   1 + r.Intn(3),
				Load:      quantize(r.Range(2e-3, 9e-3)),
				Bandwidth: quantize(r.Range(1e9, 3e9)),
			})
		case 1:
			out = append(out, faults.Fault{
				Kind: faults.KindStall, Node: autoware.VisionNodeName,
				Start: start, Duration: dur,
				Delay: time.Duration(r.Range(100, 900)) * time.Millisecond,
			})
		case 2:
			out = append(out, faults.Fault{
				Kind: faults.KindStall, Node: autoware.LocalizerNodeName,
				Start: start, Duration: dur,
				Delay: time.Duration(r.Range(50, 400)) * time.Millisecond,
			})
		case 3:
			out = append(out, faults.Fault{
				Kind: faults.KindDrop, Topic: "/points_raw",
				Start: start, Duration: dur,
				Prob: quantize(r.Range(0.1, 0.5)),
			})
		case 4:
			out = append(out, faults.Fault{
				Kind: faults.KindJitter, Topic: "/points_raw",
				Start: start, Duration: dur,
				Sigma: time.Duration(r.Range(10, 40)) * time.Millisecond,
			})
		case 5:
			out = append(out, faults.Fault{
				Kind: faults.KindBurst, Topic: "/points_raw",
				Start: start, Duration: dur,
				Rate: quantize(r.Range(20, 80)),
			})
		}
	}
	return out
}

// intensify turns a fault's primary magnitude knob up, staying inside
// Validate's bounds.
func intensify(f *faults.Fault, r *mathx.RNG) {
	grow := 1 + r.Range(0.2, 0.6)
	switch f.Kind {
	case faults.KindContention:
		if f.Workers < 4 {
			f.Workers++
		}
		f.Load = quantize(minF(f.Load*grow, 12e-3))
	case faults.KindStall:
		f.Delay = time.Duration(minF(float64(f.Delay)*grow, float64(1200*time.Millisecond)))
	case faults.KindDrop:
		f.Prob = quantize(minF(f.Prob*grow, 0.7))
	case faults.KindJitter:
		f.Sigma = time.Duration(minF(float64(f.Sigma)*grow, float64(60*time.Millisecond)))
	case faults.KindBurst:
		f.Rate = quantize(minF(f.Rate*grow, 120))
	}
}

func sampleInt(s world.IntSpan, r *mathx.RNG) int {
	if s.Max == s.Min {
		return s.Min
	}
	return s.Min + r.Intn(s.Max-s.Min+1)
}

func sampleSpan(s world.Span, r *mathx.RNG) float64 {
	if s.Max == s.Min {
		return s.Min
	}
	return r.Range(s.Min, s.Max)
}

// quantize keeps mutated float knobs on the same 1/1024 lattice the
// generator emits, so params lines stay short and byte-stable.
func quantize(v float64) float64 {
	return float64(int64(v*1024+0.5)) / 1024
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
