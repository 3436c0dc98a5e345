package scenario

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/autoware"
)

// Flags is the stack-options surface the command-line tools share:
// which chaos scenario to run, which detector, which hardening layers
// to force onto the hardened leg, and the world sampling space. Spec
// resolves it into the one Spec the run assembles its leg from.
type Flags struct {
	Faults    string
	Detector  string
	Supervise bool
	Shed      time.Duration
	Guard     bool
	Sched     bool
	// Space names the world sampling space (world.SpaceByName).
	Space string
}

// Register defines -faults, -detector, -supervise, -shed, -guard,
// -sched and -space on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Faults, "faults", "", "run a named chaos scenario: "+strings.Join(Names(), ", "))
	fs.StringVar(&f.Detector, "detector", string(autoware.DetectorYOLOv3), "vision detector: SSD512, SSD300 or YOLOv3-416")
	fs.BoolVar(&f.Supervise, "supervise", false, "force the supervision layer (restart crashed/silent nodes with backoff + checkpoint restore) onto the hardened leg")
	fs.DurationVar(&f.Shed, "shed", 0, "force this deadline-shedding budget onto the hardened leg: queued frames older than it are shed at dispatch (0 keeps the scenario's)")
	fs.BoolVar(&f.Guard, "guard", false, "force the input-integrity guard (payload validation + time sanitization + quarantine) onto the hardened leg")
	fs.BoolVar(&f.Sched, "sched", false, "force the critical-path deadline scheduler with the pinned contention-tuned knobs onto the hardened leg")
	fs.StringVar(&f.Space, "space", "default", "world sampling space for generated worlds: default or compact")
}

// Spec resolves the flags: the named scenario (a fault-free spec when
// Faults is empty) with every flag-requested layer forced on. -shed
// replaces the scenario's budget; -sched keeps a scenario's own pinned
// schedule. A named scenario must fit the drive duration.
func (f *Flags) Spec(duration time.Duration) (Spec, error) {
	var spec Spec
	if f.Faults != "" {
		var err error
		if spec, err = ByName(f.Faults); err != nil {
			return Spec{}, err
		}
		if min := spec.MinDuration(); duration < min {
			return Spec{}, fmt.Errorf("scenario %s needs -duration >= %v", spec.Name, min)
		}
	}
	spec.Supervise = spec.Supervise || f.Supervise
	spec.Guard = spec.Guard || f.Guard
	if f.Shed > 0 {
		spec.ShedBudget = f.Shed
	}
	if f.Sched && spec.Sched == nil {
		k := ContentionTunedKnobs()
		spec.Sched = &k
	}
	return spec, nil
}
