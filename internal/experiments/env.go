package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/parallel"
	"repro/internal/world"
)

// Env holds the shared fixtures every experiment runs against: the
// scenario (the synthetic Nagoya drive) and its HD map. Both are
// read-only once built, so any number of stacks may run against them
// concurrently.
type Env struct {
	Scenario *world.Scenario
	Map      *hdmap.Map
}

// NewEnv builds the fixtures once: the default drive's environment.
func NewEnv() (*Env, error) {
	scen, m, err := autoware.BuildEnv(autoware.DefaultConfig(autoware.DetectorSSD512))
	if err != nil {
		return nil, fmt.Errorf("experiments: building environment: %w", err)
	}
	return &Env{Scenario: scen, Map: m}, nil
}

// Runs caches completed stack executions so the experiments that share
// a configuration do not re-simulate. With Workers > 1, Prewarm
// executes the whole configuration matrix concurrently; each stack is
// an isolated simulation (own virtual clock, RNGs, platform state), so
// results are identical to serial execution.
type Runs struct {
	env      *Env
	Duration time.Duration
	// Workers bounds how many configurations simulate concurrently in
	// Prewarm. <= 1 means serial (the default).
	Workers int
	// Guard attaches the input-integrity layer to every stack. On clean
	// sensor input (these runs inject no faults) the guard is a no-op;
	// the flag exists to demonstrate exactly that.
	Guard bool
	// Ctx, when non-nil, cancels in-flight simulation cooperatively: a
	// run cut short returns an error wrapping autoware.ErrCancelled
	// instead of simulating to drive end. Completed runs are identical
	// with or without it.
	Ctx context.Context

	mu         sync.Mutex
	full       map[autoware.Detector]*autoware.Stack
	standalone map[autoware.Detector]*autoware.Stack
	saturated  map[autoware.Detector]*autoware.Stack
}

// NewRuns prepares a run cache for the given drive duration per run.
func NewRuns(env *Env, duration time.Duration) *Runs {
	return &Runs{
		env:        env,
		Duration:   duration,
		full:       make(map[autoware.Detector]*autoware.Stack),
		standalone: make(map[autoware.Detector]*autoware.Stack),
		saturated:  make(map[autoware.Detector]*autoware.Stack),
	}
}

// lookup returns the cached stack for key in m, if any.
func (r *Runs) lookup(m map[autoware.Detector]*autoware.Stack, key autoware.Detector) (*autoware.Stack, bool) {
	r.mu.Lock()
	s, ok := m[key]
	r.mu.Unlock()
	return s, ok
}

// store records a completed stack.
func (r *Runs) store(m map[autoware.Detector]*autoware.Stack, key autoware.Detector, s *autoware.Stack) {
	r.mu.Lock()
	m[key] = s
	r.mu.Unlock()
}

// drive advances a freshly built stack to the run horizon, honoring the
// cancellation context when one is set.
func (r *Runs) drive(s *autoware.Stack) error {
	if r.Ctx == nil {
		s.Run(r.Duration)
		return nil
	}
	return s.RunContext(r.Ctx, r.Duration)
}

// Full returns (running on first use) the full-system stack for a
// detector.
func (r *Runs) Full(det autoware.Detector) (*autoware.Stack, error) {
	if s, ok := r.lookup(r.full, det); ok {
		return s, nil
	}
	cfg := autoware.DefaultConfig(det)
	cfg.Guard = r.Guard
	s, err := autoware.BuildWithMap(cfg, r.env.Scenario, r.env.Map)
	if err != nil {
		return nil, err
	}
	if err := r.drive(s); err != nil {
		return nil, err
	}
	r.store(r.full, det, s)
	return s, nil
}

// Standalone returns the vision-only stack for a detector.
func (r *Runs) Standalone(det autoware.Detector) (*autoware.Stack, error) {
	if s, ok := r.lookup(r.standalone, det); ok {
		return s, nil
	}
	cfg := autoware.DefaultConfig(det)
	cfg.Guard = r.Guard
	cfg.Mode = autoware.ModeVisionStandalone
	s, err := autoware.BuildWithMap(cfg, r.env.Scenario, r.env.Map)
	if err != nil {
		return nil, err
	}
	if err := r.drive(s); err != nil {
		return nil, err
	}
	r.store(r.standalone, det, s)
	return s, nil
}

// Saturated returns the full-system stack with the camera overdriven to
// 13.5 fps — the saturated-detector dropping regime of Table III (b).
func (r *Runs) Saturated(det autoware.Detector) (*autoware.Stack, error) {
	if s, ok := r.lookup(r.saturated, det); ok {
		return s, nil
	}
	cfg := autoware.DefaultConfig(det)
	cfg.Guard = r.Guard
	cfg.CameraRate = 13.5
	s, err := autoware.BuildWithMap(cfg, r.env.Scenario, r.env.Map)
	if err != nil {
		return nil, err
	}
	if err := r.drive(s); err != nil {
		return nil, err
	}
	r.store(r.saturated, det, s)
	return s, nil
}

// Prewarm simulates every configuration the experiment suite reads —
// full system and saturated-camera for each detector, standalone for
// the Fig. 8 pair — across at most Workers goroutines. Errors are
// reported in configuration order, so failures are deterministic too.
// After Prewarm, every experiment harness is a pure cache read.
func (r *Runs) Prewarm() error {
	type job func() error
	var jobs []job
	for _, det := range autoware.Detectors() {
		det := det
		jobs = append(jobs, func() error { _, err := r.Full(det); return err })
		jobs = append(jobs, func() error { _, err := r.Saturated(det); return err })
	}
	for _, det := range []autoware.Detector{autoware.DetectorSSD512, autoware.DetectorYOLOv3} {
		det := det
		jobs = append(jobs, func() error { _, err := r.Standalone(det); return err })
	}
	workers := r.Workers
	if workers <= 1 {
		workers = 1
	}
	return parallel.FirstError(len(jobs), workers, func(i int) error { return jobs[i]() })
}
