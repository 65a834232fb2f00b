package osgi

import (
	"fmt"

	"ijvm/internal/core"
)

// AdminPolicy configures the automated administrator. The paper positions
// accounting as decision support for a *human* administrator and
// explicitly discusses why naive automation is unsafe (§4.4: sampling can
// charge a victim callee for a malicious caller's loop). AutoAdmin
// implements the automation anyway — with the safeguards below — so the
// §4.4 misattribution scenarios can be demonstrated and tested.
type AdminPolicy struct {
	// Thresholds drive the detectors.
	Thresholds core.Thresholds
	// DryRun reports findings without killing.
	DryRun bool
	// Protected lists bundle names the admin must never kill.
	Protected []string
}

// AdminAction records one decision of the automated administrator.
type AdminAction struct {
	Finding core.Finding
	Bundle  string
	Killed  bool
	Reason  string
}

func (a AdminAction) String() string {
	verb := "flagged"
	if a.Killed {
		verb = "killed"
	}
	return fmt.Sprintf("%s %s: %s (%s)", verb, a.Bundle, a.Finding.Rule, a.Reason)
}

// AutoAdmin is the automated administrator loop.
type AutoAdmin struct {
	fw     *Framework
	policy AdminPolicy
	kills  int
	log    []AdminAction
}

// NewAutoAdmin creates an automated administrator for a framework.
func NewAutoAdmin(fw *Framework, policy AdminPolicy) *AutoAdmin {
	if policy.Thresholds == (core.Thresholds{}) {
		policy.Thresholds = core.DefaultThresholds()
	}
	return &AutoAdmin{fw: fw, policy: policy}
}

// Log returns the actions taken so far (a copy).
func (a *AutoAdmin) Log() []AdminAction { return append([]AdminAction(nil), a.log...) }

// Kills returns the number of bundles killed.
func (a *AutoAdmin) Kills() int { return a.kills }

// Tick runs one administration cycle: snapshot, detect, and (unless
// DryRun) kill the offender of each finding. It returns the actions
// taken. Repeated findings against an already-killed bundle are dropped.
func (a *AutoAdmin) Tick() ([]AdminAction, error) {
	findings := a.fw.DetectOffenders(a.policy.Thresholds)
	var actions []AdminAction
	seen := make(map[string]bool)
	for _, f := range findings {
		b := a.fw.BundleByIsolateID(f.IsolateID)
		if b == nil || b.iso.Killed() || seen[b.Name()] {
			continue
		}
		seen[b.Name()] = true
		action := AdminAction{Finding: f, Bundle: b.Name()}
		switch {
		case a.policy.DryRun:
			action.Reason = "dry run"
		case a.isProtected(b.Name()):
			action.Reason = "protected bundle"
		default:
			if err := a.fw.KillBundle(b); err != nil {
				return actions, fmt.Errorf("auto-admin killing %s: %w", b.Name(), err)
			}
			// Drain staged termination exceptions so the platform state
			// settles before the next detection cycle.
			a.fw.vm.Run(1_000_000)
			a.kills++
			action.Killed = true
			action.Reason = fmt.Sprintf("%s=%d over limit %d", f.Rule, f.Observed, f.Limit)
		}
		a.log = append(a.log, action)
		actions = append(actions, action)
	}
	return actions, nil
}

func (a *AutoAdmin) isProtected(name string) bool {
	for _, p := range a.policy.Protected {
		if p == name {
			return true
		}
	}
	return false
}
