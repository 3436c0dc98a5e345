package avstack

import (
	"repro/internal/autoware"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Scheduler surface re-exports, keeping callers on the facade.
type (
	// SchedKnobs is the scheduler's tunable configuration.
	SchedKnobs = sched.Knobs
	// Criticality is a measured per-node critical-path profile.
	Criticality = sched.Criticality
	// Chain is one reconstructed end-to-end lineage chain.
	Chain = trace.Chain
	// ChainLog records lineage chains from executor completions.
	ChainLog = trace.ChainLog
)

// AttachChainLog installs lineage-chain recording on a stack's executor,
// closing chains on the standard Table IV paths with the stack's
// measurement warmup. The log is a pure observer — attaching it never
// changes a virtual-time sample — so it is safe on the profiling run
// whose measurements seed the scheduler.
func AttachChainLog(stack *autoware.Stack) *trace.ChainLog {
	cl := trace.NewChainLog(trace.StandardPaths())
	cl.Warmup = stack.Config.Warmup
	cl.Attach(stack.Executor)
	return cl
}

// AttachScheduler installs the critical-path deadline scheduler on a
// stack's executor: dispatch switches from FIFO to earliest-origin-
// deadline order with the profile's criticality as tie-break, plus the
// knobs' shedding budget and admission cap. crit may be nil (pure EDF).
// Attach before Run; the executor consults the policy at every dispatch.
func AttachScheduler(stack *autoware.Stack, crit *sched.Criticality, k sched.Knobs) *sched.Policy {
	pol := sched.NewPolicy(crit, k)
	stack.Executor.Sched = pol
	return pol
}

// AnalyzeCriticality derives a criticality profile from recorded chains.
func AnalyzeCriticality(chains []Chain) *Criticality {
	return sched.Analyze(chains)
}
