package avstack

import (
	"time"

	"repro/internal/autoware"
	"repro/internal/nodes/localization"
	"repro/internal/nodes/tracking"
	"repro/internal/supervise"
	"repro/internal/trace"
)

// Supervision layer re-exports: the supervisor restarts crashed or
// silent nodes with exponential backoff and restores their last state
// checkpoint (see internal/supervise).
type (
	// Supervisor is the attached node-lifecycle supervision layer.
	Supervisor = supervise.Supervisor
	// SupervisorConfig tunes detection, backoff and checkpoint cadence.
	SupervisorConfig = supervise.Config
	// SupervisePolicy declares supervision for one node.
	SupervisePolicy = supervise.Policy
	// Checkpointer is the state snapshot/restore hook stateful nodes
	// implement for crash recovery.
	Checkpointer = supervise.Checkpointer
	// Outage is one recorded node outage: detection, restarts, frames
	// lost, recovery, and checkpoint restoration.
	Outage = trace.Outage
	// FaultLoss is one aggregate of fault-induced message losses.
	FaultLoss = trace.FaultLoss
)

// DefaultSupervision builds the standard supervision config for a
// stack: the stateful perception nodes (tracker, localizer) watched on
// their output topics with a 1 s liveness timeout and checkpointed for
// restore-on-restart.
func DefaultSupervision(stack *autoware.Stack, seed uint64) SupervisorConfig {
	cfg := SupervisorConfig{Seed: seed}
	if stack.Tracker != nil {
		cfg.Policies = append(cfg.Policies, SupervisePolicy{
			Node:            autoware.TrackerNodeName,
			Topic:           tracking.TopicObjects,
			LivenessTimeout: time.Second,
			Checkpoint:      stack.Tracker,
		})
	}
	if stack.NDT != nil {
		cfg.Policies = append(cfg.Policies, SupervisePolicy{
			Node:            autoware.LocalizerNodeName,
			Topic:           localization.TopicCurrentPose,
			LivenessTimeout: time.Second,
			Checkpoint:      stack.NDT,
		})
	}
	return cfg
}

// AttachDefaultSupervision wires the standard supervision layer into a
// stack. Attach any fault injector first: the supervisor's filter runs
// in front of the layers attached before it, which is how it observes
// their crash verdicts.
func AttachDefaultSupervision(stack *autoware.Stack, seed uint64) (*Supervisor, error) {
	sup, err := supervise.New(DefaultSupervision(stack, seed))
	if err != nil {
		return nil, err
	}
	sup.Attach(stack.Executor, stack.Bus, stack.Recorder)
	return sup, nil
}

// Outages returns recorded node outages (empty without an attached
// supervisor).
func (s *System) Outages() []Outage { return s.stack.Recorder.Outages() }

// FaultLosses returns aggregate fault-induced message losses (empty
// unless an injector with a loss recorder is attached, as
// scenario.Spec.Harden does).
func (s *System) FaultLosses() []FaultLoss { return s.stack.Recorder.FaultLosses() }
