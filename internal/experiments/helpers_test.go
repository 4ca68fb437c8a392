package experiments

import (
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// runRows runs jobs serially under the default root seed and collects
// their rows.
func runRows[T any](jobs []runner.Job) []T {
	return Rows[T](runner.Run(jobs, runner.Options{Workers: 1}))
}

func shortDuration() sim.Time { return 150 * sim.Millisecond }
func ycsbA() ycsb.Workload    { return ycsb.A }
