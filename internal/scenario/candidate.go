package scenario

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/world"
)

// Candidate is one point in the adversarial search space (see
// internal/search): a sampled world plus a fault schedule to run
// against it. Its text form is the pinned-scenario file format that
// Generated loads.
type Candidate struct {
	// Name labels the candidate in reports and pinned scenario files.
	Name string
	// World is the procedural scenario parameterization.
	World world.ScenarioConfig
	// FaultSeed drives every stochastic fault decision (and seeds the
	// supervision layer attached during evaluation; it becomes Spec.Seed).
	FaultSeed uint64
	// Faults is the schedule injected during evaluation; empty means a
	// clean drive.
	Faults []faults.Fault
}

// Schedule bundles the candidate's faults with its seed.
func (c Candidate) Schedule() faults.Schedule {
	return faults.Schedule{Seed: c.FaultSeed, Faults: c.Faults}
}

// ErrCandidate marks candidate text the codec cannot decode.
var ErrCandidate = errors.New("scenario: invalid candidate")

// MarshalCandidate serializes a candidate as a small line-oriented
// document — the form discovered worst cases are pinned to testdata in:
//
//	name gen-rain-burst
//	world blocks=9 size=80.5 ... weather=rain ...
//	faultseed 0xabc
//	fault kind=contention start=4s dur=5s workers=3 load=0.006 bw=2e+09
//
// Parse∘Marshal is the identity on valid candidates; hostile input
// yields ErrCandidate (or the underlying codec sentinel), never a panic.
func MarshalCandidate(c Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name %s\n", c.Name)
	fmt.Fprintf(&b, "world %s\n", world.MarshalParams(c.World))
	if len(c.Faults) > 0 {
		fmt.Fprintf(&b, "faultseed 0x%x\n", c.FaultSeed)
		for _, f := range c.Faults {
			fmt.Fprintf(&b, "fault %s\n", faults.FormatFault(f))
		}
	}
	return b.String()
}

// ParseCandidate decodes a candidate document. Blank lines and
// #-comments are ignored; every other line is "key rest-of-line".
func ParseCandidate(text string) (Candidate, error) {
	var c Candidate
	var haveName, haveWorld, haveSeed bool
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return c, fmt.Errorf("%w: line %d: %q has no value", ErrCandidate, ln+1, key)
		}
		switch key {
		case "name":
			if haveName {
				return c, fmt.Errorf("%w: duplicate name", ErrCandidate)
			}
			if !validCandidateName(rest) {
				return c, fmt.Errorf("%w: name %q (want lowercase [a-z0-9-], <= 48 chars)", ErrCandidate, rest)
			}
			c.Name, haveName = rest, true
		case "world":
			if haveWorld {
				return c, fmt.Errorf("%w: duplicate world line", ErrCandidate)
			}
			cfg, err := world.ParseParams(rest)
			if err != nil {
				return c, err
			}
			c.World, haveWorld = cfg, true
		case "faultseed":
			if haveSeed {
				return c, fmt.Errorf("%w: duplicate faultseed", ErrCandidate)
			}
			hex, ok := strings.CutPrefix(rest, "0x")
			if !ok {
				return c, fmt.Errorf("%w: faultseed %q is not 0x-hex", ErrCandidate, rest)
			}
			seed, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				return c, fmt.Errorf("%w: faultseed %q is not 0x-hex", ErrCandidate, rest)
			}
			c.FaultSeed, haveSeed = seed, true
		case "fault":
			f, err := faults.ParseFault(rest)
			if err != nil {
				return c, err
			}
			c.Faults = append(c.Faults, f)
		default:
			return c, fmt.Errorf("%w: unknown line key %q", ErrCandidate, key)
		}
	}
	if !haveName || !haveWorld {
		return c, fmt.Errorf("%w: missing name or world line", ErrCandidate)
	}
	if len(c.Faults) > 0 && !haveSeed {
		return c, fmt.Errorf("%w: faults without a faultseed", ErrCandidate)
	}
	if len(c.Faults) == 0 && haveSeed {
		return c, fmt.Errorf("%w: faultseed without faults", ErrCandidate)
	}
	return c, nil
}

// validCandidateName bounds pinned-scenario names to the same safe
// alphabet the scenario registry and report tables use.
func validCandidateName(s string) bool {
	if len(s) == 0 || len(s) > 48 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' {
			continue
		}
		return false
	}
	return true
}
