package fleet

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/scenario"
	"repro/internal/world"
)

// RunResult is what one successful job attempt yields: the rendered
// side-by-side report (the byte-identity unit of the determinism
// contract) and the run's worst faulted-path p99 for aggregation.
type RunResult struct {
	Report []byte
	E2EP99 float64
}

// Runner executes one resolved job attempt. Tests substitute fakes to
// exercise the service's retry/deadline/ladder machinery without
// paying for real simulation.
type Runner interface {
	Run(ctx context.Context, spec scenario.Spec, det autoware.Detector, duration time.Duration) (*RunResult, error)
}

// worldFromParams parses a canonical params line into a world config.
func worldFromParams(line string) (world.ScenarioConfig, error) {
	cfg, err := world.ParseParams(line)
	if err != nil {
		return world.ScenarioConfig{}, fmt.Errorf("%w: params: %v", ErrBadJob, err)
	}
	if err := cfg.Validate(); err != nil {
		return world.ScenarioConfig{}, fmt.Errorf("%w: params: %v", ErrBadJob, err)
	}
	return cfg, nil
}

// env is one built simulation environment: the generated world and its
// HD map. Building the map costs seconds of wall clock; the fleet
// amortizes it across every job sharing the same world params.
type env struct {
	once sync.Once
	scen *world.Scenario
	m    *hdmap.Map
	err  error
}

// envCache shares built environments across jobs and across service
// instances in one process, keyed by canonical world params. Scenarios
// and maps are read-only after construction (the worker-invariance
// tests drive concurrent stacks over shared ones), so concurrent jobs
// may run over one entry safely.
var envCache sync.Map // params line -> *env

func sharedEnv(cfg autoware.Config) (*world.Scenario, *hdmap.Map, error) {
	key := world.MarshalParams(cfg.Scenario)
	v, _ := envCache.LoadOrStore(key, &env{})
	e := v.(*env)
	e.once.Do(func() {
		e.scen, e.m, e.err = autoware.BuildEnv(cfg)
		if e.err != nil {
			e.err = fmt.Errorf("fleet: building environment: %w", e.err)
		}
	})
	return e.scen, e.m, e.err
}

// scenarioRunner is the production Runner: resolve the spec's world to
// a cached environment, run both legs under the attempt context, and
// render the report. Environment construction is not context-aware
// (it is CPU-bound and cached); only the simulation legs observe
// cancellation.
type scenarioRunner struct{}

func defaultRunner() Runner { return scenarioRunner{} }

func (scenarioRunner) Run(ctx context.Context, spec scenario.Spec, det autoware.Detector, duration time.Duration) (*RunResult, error) {
	scen, m, err := sharedEnv(spec.Config(det))
	if err != nil {
		return nil, err
	}
	res, err := scenario.RunWithEnvContext(ctx, scen, m, spec, det, duration)
	if err != nil {
		return nil, err
	}
	var rep bytes.Buffer
	res.WriteReport(&rep)
	worst := 0.0
	for _, p := range res.Paths {
		if p.Faulted.Count > 0 && p.Faulted.P99 > worst {
			worst = p.Faulted.P99
		}
	}
	return &RunResult{Report: rep.Bytes(), E2EP99: worst}, nil
}
