package experiments

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// LoadJob is one allocation request of a service workload: a program
// drawn from a named generator profile, in both IR and wire (textual)
// form. Jobs are deterministic in (Profile, Seed), so a workload replays
// identically across runs and its repeats are cache-hit candidates for
// the allocation service.
type LoadJob struct {
	Profile string
	Seed    int64
	// Prog is the program; Text its canonical textual form as posted to
	// lsra-served (ir.ParseProgram reads it back).
	Prog *ir.Program
	Text string
}

// Workload builds a deterministic service load: one job per
// (profile, seed) pair over seedsPer consecutive seeds starting at
// seed0, in profile-major order. Empty profiles selects every named
// generator profile. BenchmarkServeSteadyState replays a workload
// repeatedly — the first pass misses the daemon's result cache, every
// later pass hits it — and the serve tests use it as mixed traffic.
// End-to-end serving throughput is the repository benchmark's
// serve-hotcold workload (benchmark/), not a replay of this.
func Workload(mach *target.Machine, profiles []string, seed0 int64, seedsPer int) ([]LoadJob, error) {
	if len(profiles) == 0 {
		profiles = progs.Profiles()
	}
	jobs := make([]LoadJob, 0, len(profiles)*seedsPer)
	for _, name := range profiles {
		for s := int64(0); s < int64(seedsPer); s++ {
			cfg, err := progs.ProfileGen(name, seed0+s)
			if err != nil {
				return nil, fmt.Errorf("experiments: workload: %w", err)
			}
			prog := progs.Random(mach, cfg)
			var sb strings.Builder
			(&ir.Printer{Mach: mach}).WriteProgram(&sb, prog)
			jobs = append(jobs, LoadJob{Profile: name, Seed: seed0 + s, Prog: prog, Text: sb.String()})
		}
	}
	return jobs, nil
}
