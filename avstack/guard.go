package avstack

import (
	"repro/internal/guard"
	"repro/internal/trace"
)

// Integrity-guard re-exports: the guard validates payloads and
// sanitizes timestamps at the bus boundary, quarantining corrupted
// frames before they reach any node (see internal/guard). It is
// attached at build time by autoware.Config.Guard.
type (
	// Guard is the attached input-integrity layer.
	Guard = guard.Guard
	// GuardConfig tunes holdback, future tolerance, dup window and the
	// validator registry.
	GuardConfig = guard.Config
	// GuardCauseCount is one (topic, cause) quarantine counter.
	GuardCauseCount = guard.CauseCount
	// IntegrityEvent is one aggregated quarantine record from the trace.
	IntegrityEvent = trace.IntegrityEvent
)

// IntegrityEvents returns the aggregated quarantine record (empty
// without an attached guard or on clean input).
func (s *System) IntegrityEvents() []IntegrityEvent {
	return s.stack.Recorder.IntegrityEvents()
}
