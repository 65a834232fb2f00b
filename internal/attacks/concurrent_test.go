package attacks_test

import (
	"testing"

	"ijvm/internal/attacks"
	"ijvm/internal/core"
)

// TestAttacksUnderConcurrentScheduler re-runs the §4.3 attack scenarios
// with every scheduler phase driven through the concurrent isolate
// scheduler (sched.Run) instead of the sequential cooperative loop,
// and asserts the outcomes the paper's table demands are unchanged: the
// victim isolates survive, and the attacker is detected, killed and
// accounted exactly as in the sequential path. Running under -race this
// also exercises the cross-isolate locking discipline end to end.
func TestAttacksUnderConcurrentScheduler(t *testing.T) {
	attacks.ConcurrentWorkers = 4
	defer func() { attacks.ConcurrentWorkers = 0 }()

	needsDetection := map[string]bool{
		"A1": false, "A2": false,
		"A3": true, "A4": true, "A5": true, "A6": true, "A7": true, "A8": true,
		"X9": true,
	}

	all := append(attacks.All(), attacks.Extensions()...)
	for _, a := range all {
		a := a
		t.Run(a.ID+"/ijvm", func(t *testing.T) {
			r, err := a.Run(core.ModeIsolated)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !r.VictimOK {
				t.Errorf("victim must survive %s under the concurrent scheduler: %s", a.ID, r)
			}
			if needsDetection[a.ID] && (!r.Detected || !r.OffenderKilled) {
				t.Errorf("admin must detect and kill for %s under the concurrent scheduler: %s", a.ID, r)
			}
		})
	}

	// The isolation attacks must still visibly compromise the baseline
	// when the baseline is driven concurrently (a single shard: the
	// concurrent engine degenerates to cooperative scheduling there).
	for _, id := range []string{"A1", "A2"} {
		a := attacks.ByID(id)
		t.Run(id+"/baseline", func(t *testing.T) {
			r, err := a.Run(core.ModeShared)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !r.PlatformCompromised {
				t.Errorf("baseline must be compromised by %s: %s", id, r)
			}
		})
	}
}
