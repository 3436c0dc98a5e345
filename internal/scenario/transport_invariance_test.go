package scenario

import (
	"bytes"
	"testing"

	"repro/avstack"
	"repro/internal/autoware"
	"repro/internal/parallel"
	"repro/internal/testenv"
)

// TestTransportWorkerInvariance pins the determinism contract of the
// lock-free transport under the one knob that changes real parallelism:
// the worker budget. The queue-burst scenario (guard and supervisor on,
// faults active) must produce a bit-exact trace — every node and path
// latency sample, plus the rendered report — whether the compute
// kernels run on 1, 2 or 8 workers. Rings and refcounting live on the
// single-threaded simulation spine; worker count may only change *when*
// wall-clock work happens, never any simulated observable.
func TestTransportWorkerInvariance(t *testing.T) {
	spec, err := ByName(NameQueueBurst)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		report      string
		fingerprint string
	}
	run := func(workers int) outcome {
		prev := parallel.MaxWorkers()
		parallel.SetMaxWorkers(workers)
		defer parallel.SetMaxWorkers(prev)
		baseline, err := autoware.BuildWithMap(Spec{}.Config(autoware.DetectorSSD300), testenv.Scenario(), testenv.Map())
		if err != nil {
			t.Fatal(err)
		}
		chains := avstack.AttachChainLog(baseline)
		baseline.Run(transportGoldenDuration)
		res, faulted := runTransportScenario(t, spec, testenv.Scenario(), testenv.Map(), baseline, chains)
		var rep bytes.Buffer
		res.WriteReport(&rep)
		return outcome{report: rep.String(), fingerprint: faulted.Recorder.Fingerprint()}
	}

	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.fingerprint != ref.fingerprint {
			t.Errorf("latency fingerprint diverged between 1 and %d workers", workers)
		}
		if got.report != ref.report {
			t.Errorf("rendered report diverged between 1 and %d workers", workers)
		}
	}
}

// TestSchedWorkerInvariance extends the determinism contract to the
// deadline scheduler: the contention-tuned scenario — EDF pick,
// criticality tie-breaks, per-node shedding and the admission cap all
// active — must produce a bit-exact latency fingerprint on 1, 2 and 8
// workers. The scheduler reads only virtual-time state, so a scheduled
// run may differ from FIFO but never from itself across worker budgets.
func TestSchedWorkerInvariance(t *testing.T) {
	spec, err := ByName(NameContentionTuned)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) string {
		prev := parallel.MaxWorkers()
		parallel.SetMaxWorkers(workers)
		defer parallel.SetMaxWorkers(prev)
		baseline, err := autoware.BuildWithMap(Spec{}.Config(autoware.DetectorSSD300), testenv.Scenario(), testenv.Map())
		if err != nil {
			t.Fatal(err)
		}
		chains := avstack.AttachChainLog(baseline)
		baseline.Run(transportGoldenDuration)
		_, faulted := runTransportScenario(t, spec, testenv.Scenario(), testenv.Map(), baseline, chains)
		return faulted.Recorder.Fingerprint()
	}

	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != ref {
			t.Errorf("scheduled fingerprint diverged between 1 and %d workers", workers)
		}
	}
}
