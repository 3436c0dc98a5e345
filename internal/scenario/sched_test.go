package scenario

import (
	"context"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/sched"
	"repro/internal/testenv"
)

// schedTestDuration matches the golden duration: the contention window
// closes at 9 s, leaving a second of recovery.
const schedTestDuration = 10 * time.Second

// TestContentionTunedImprovesP99 is the F1-closure assertion: the
// pinned tuned schedule must beat the plain contention scenario's
// worst-path faulted p99 while keeping the sample population (no
// winning by shedding the traffic), and must leave the fault-free
// baseline leg untouched.
func TestContentionTunedImprovesP99(t *testing.T) {
	plain, err := ByName(NameContention)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := ByName(NameContentionTuned)
	if err != nil {
		t.Fatal(err)
	}

	run := func(spec Spec) *Result {
		res, err := RunWithEnvContext(context.Background(), testenv.Scenario(), testenv.Map(), spec, autoware.DetectorSSD300, schedTestDuration)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plainRes, tunedRes := run(plain), run(tuned)

	worst := func(r *Result) (string, float64, int, int) {
		var path string
		var p99 float64
		total := 0
		var count int
		for _, ps := range r.Paths {
			total += ps.Faulted.Count
			if ps.Faulted.Count == 0 {
				continue
			}
			if path == "" || ps.Faulted.P99 > p99 {
				path, p99, count = ps.Path, ps.Faulted.P99, ps.Faulted.Count
			}
		}
		return path, p99, count, total
	}
	plainPath, plainP99, _, plainTotal := worst(plainRes)
	tunedPath, tunedP99, _, tunedTotal := worst(tunedRes)
	t.Logf("plain worst %s p99=%.2fms (%d samples); tuned worst %s p99=%.2fms (%d samples)",
		plainPath, plainP99, plainTotal, tunedPath, tunedP99, tunedTotal)

	if tunedP99 >= plainP99 {
		t.Errorf("tuned schedule did not improve worst-path p99: %.2fms vs %.2fms", tunedP99, plainP99)
	}
	if float64(tunedTotal) < 0.5*float64(plainTotal) {
		t.Errorf("tuned schedule gutted the sample population: %d vs %d", tunedTotal, plainTotal)
	}

	// The scheduler only touches the faulted leg; both specs' fault-free
	// baselines must be identical (the tuned spec's lineage observer is
	// not allowed to move a sample).
	for i, ps := range plainRes.Paths {
		tp := tunedRes.Paths[i]
		if ps.Path != tp.Path || ps.Baseline != tp.Baseline {
			t.Errorf("baseline leg diverged on path %s with the chain log attached", ps.Path)
		}
	}
}

// TestTuneDisabledMatchesFaultedLeg pins that the tuner scores the leg
// the chaos run drives: on camera-stall (a spec with watch policies),
// the no-scheduler candidate's worst path and sample count must equal
// RunWithEnvContext's faulted leg bit for bit.
func TestTuneDisabledMatchesFaultedLeg(t *testing.T) {
	spec, err := ByName(NameCameraStall)
	if err != nil {
		t.Fatal(err)
	}
	duration := spec.MinDuration()
	res, err := RunWithEnvContext(context.Background(), testenv.Scenario(), testenv.Map(), spec, autoware.DetectorSSD300, duration)
	if err != nil {
		t.Fatal(err)
	}
	var want sched.Eval
	for _, ps := range res.Paths {
		want.Samples += ps.Faulted.Count
		if ps.Faulted.Count > 0 && (want.Path == "" || ps.Faulted.P99 > want.P99) {
			want.Path, want.P50, want.P99 = ps.Path, ps.Faulted.Median, ps.Faulted.P99
		}
	}

	got, err := evalCandidate(testenv.Scenario(), testenv.Map(), spec, autoware.DetectorSSD300, duration, nil, sched.Candidate{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Disabled candidate scored %+v, faulted leg measured %+v", got, want)
	}
}
