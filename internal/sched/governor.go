package sched

import (
	"sync"
	"sync/atomic"

	"ijvm/internal/core"
	"ijvm/internal/interp"
)

// Stage is an isolate's position on the governor's escalation ladder.
type Stage uint8

const (
	// StageNormal: no intervention.
	StageNormal Stage = iota
	// StageDeprioritized: the isolate's weight is divided so it keeps
	// running but at a fraction of its share.
	StageDeprioritized
	// StageThrottled: additionally, new thread spawns and new RPC
	// submissions by the isolate are refused (core.ErrThrottled).
	StageThrottled
	// StageKilled: the isolate was terminated through the §3.3 kill
	// path (sustained critical allocation pressure only).
	StageKilled
)

// String returns the stage name.
func (s Stage) String() string {
	switch s {
	case StageDeprioritized:
		return "deprioritized"
	case StageThrottled:
		return "throttled"
	case StageKilled:
		return "killed"
	default:
		return "normal"
	}
}

// GovernorConfig tunes the admission controller. Zero values select the
// documented defaults.
type GovernorConfig struct {
	// WindowInstrs is the sampling window in globally executed
	// instructions (default 65536). The governor observes per-isolate
	// burn-rate deltas over one window at dispatch boundaries.
	WindowInstrs int64
	// CPUFactor marks an isolate CPU-hot when its window share exceeds
	// CPUFactor times the fair share of the active isolates
	// (delta·activeN > total·CPUFactor; default 3). A latency-sensitive
	// tenant legitimately bursts past this in the single window its
	// request runs in — CPU hotness only escalates when it persists for
	// DeprioritizeAfter consecutive windows, which bursty interactive
	// work never sustains but a dominance attacker must.
	CPUFactor int64
	// HeapHighPct is the heap-pressure gate (percent of the limit,
	// default 85): allocation burn only escalates toward kill while the
	// heap is past it.
	HeapHighPct int64
	// AllocBytesPerWindow marks an isolate alloc-hot when it allocates
	// at least this many bytes in one window under heap pressure
	// (default 1 MiB); 4x this is alloc-hot regardless of pressure.
	AllocBytesPerWindow int64
	// SleepersMax marks an isolate hot when its sleeping-thread gauge
	// exceeds this (monitor/sleep hogs, attack A7; default 16).
	SleepersMax int64
	// DeprioritizeAfter / ThrottleAfter are the consecutive-hot-window
	// counts that trigger each stage (defaults 2 and 3 — a single hot
	// window is indistinguishable from an interactive tenant's request
	// burst, so one window never escalates by default). KillAfter is
	// the consecutive-critical-window count (alloc-hot under heap
	// pressure) that triggers termination (default 6) — CPU, sleeper
	// and RPC abuse cap at throttling, so in steady state offenders are
	// throttled, never killed, unless they endanger the heap itself.
	DeprioritizeAfter int
	ThrottleAfter     int
	KillAfter         int
	// DeprioritizeDivisor divides the offender's weight while
	// deprioritized (default 8).
	DeprioritizeDivisor int64
}

const (
	// saturationsPerWindow marks an isolate hot when it drives at least
	// this many saturated RPC submissions in one window.
	saturationsPerWindow = 64
	// calmAfter is the consecutive-calm-window count that resets an
	// isolate to normal, restoring its weight and admission.
	calmAfter = 4
)

func (c *GovernorConfig) fill() {
	if c.WindowInstrs <= 0 {
		c.WindowInstrs = 65536
	}
	if c.CPUFactor <= 0 {
		c.CPUFactor = 3
	}
	if c.HeapHighPct <= 0 {
		c.HeapHighPct = 85
	}
	if c.AllocBytesPerWindow <= 0 {
		c.AllocBytesPerWindow = 1 << 20
	}
	if c.SleepersMax <= 0 {
		c.SleepersMax = 16
	}
	if c.DeprioritizeAfter <= 0 {
		c.DeprioritizeAfter = 2
	}
	if c.ThrottleAfter <= 0 {
		c.ThrottleAfter = 3
	}
	if c.KillAfter <= 0 {
		c.KillAfter = 6
	}
	if c.DeprioritizeDivisor <= 1 {
		c.DeprioritizeDivisor = 8
	}
}

// GovernorStats is a point-in-time copy of the governor's counters.
type GovernorStats struct {
	// Ticks counts completed sampling windows.
	Ticks int64
	// Deprioritizations, Throttles and Kills count stage escalations
	// (each isolate counts once per episode, not per window).
	Deprioritizations int64
	Throttles         int64
	Kills             int64
	// Restores counts isolates returned to normal after calming down.
	Restores int64
}

// govEntry is the governor's per-isolate state. Guarded by Governor.mu.
type govEntry struct {
	primed         bool
	lastInstr      int64
	lastAllocBytes int64
	lastSat        int64
	hotStreak      int
	calmStreak     int
	criticalStreak int
	stage          Stage
	baseWeight     int64
}

// A Governor watches per-isolate burn rates (CPU share, allocation
// rate, sleeping-thread gauges, RPC saturation counts) together with
// global heap pressure and responds in escalating stages: deprioritize
// (weight division) → throttle (refuse new spawns and RPC admissions,
// core.ErrThrottled) → kill (the §3.3 termination path, reserved for
// sustained allocation pressure that endangers the shared heap). All
// interventions reverse except kill: an offender that calms down gets
// its weight and admission back.
//
// The scheduler samples the governor at dispatch boundaries (outside
// the pool lock — the kill path stops the world). A Governor is
// single-VM, single-run state; create a fresh one per RunConfig call.
type Governor struct {
	cfg    GovernorConfig
	nextAt atomic.Int64

	mu      sync.Mutex
	entries map[*core.Isolate]*govEntry

	ticks         atomic.Int64
	deprioritized atomic.Int64
	throttled     atomic.Int64
	kills         atomic.Int64
	restores      atomic.Int64
}

// NewGovernor creates a governor with cfg (zero fields take defaults).
func NewGovernor(cfg GovernorConfig) *Governor {
	cfg.fill()
	return &Governor{cfg: cfg, entries: make(map[*core.Isolate]*govEntry)}
}

// Stats returns a copy of the governor's counters.
func (g *Governor) Stats() GovernorStats {
	return GovernorStats{
		Ticks:             g.ticks.Load(),
		Deprioritizations: g.deprioritized.Load(),
		Throttles:         g.throttled.Load(),
		Kills:             g.kills.Load(),
		Restores:          g.restores.Load(),
	}
}

// StageOf returns iso's current escalation stage.
func (g *Governor) StageOf(iso *core.Isolate) Stage {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e, ok := g.entries[iso]; ok {
		return e.stage
	}
	return StageNormal
}

// forget drops the governor's record of a freed isolate.
func (g *Governor) forget(iso *core.Isolate) {
	g.mu.Lock()
	delete(g.entries, iso)
	g.mu.Unlock()
}

// tick samples the world if a full window has elapsed since the last
// sample. Called by pool workers at dispatch boundaries with p.mu NOT
// held (escalation to kill stops the world). The CAS on nextAt elects
// one worker per window; g.mu then serializes the sample itself.
func (g *Governor) tick(p *pool) {
	now := p.instrs.Load()
	next := g.nextAt.Load()
	if now < next || !g.nextAt.CompareAndSwap(next, now+g.cfg.WindowInstrs) {
		return
	}
	g.mu.Lock()
	kills := g.sampleLocked(p.vm)
	g.mu.Unlock()
	g.ticks.Add(1)
	// Kills run outside g.mu: the stop-the-world pause can wait on
	// workers that are themselves about to call tick.
	for _, iso := range kills {
		if err := p.vm.KillIsolate(p.vm.World().Isolate0(), iso); err == nil {
			g.kills.Add(1)
		}
	}
}

// sampleLocked reads one window of per-isolate deltas, updates streaks
// and applies reversible interventions; it returns the isolates whose
// critical streak crossed the kill threshold (the caller terminates
// them outside g.mu). g.mu held.
func (g *Governor) sampleLocked(vm *interp.VM) []*core.Isolate {
	isolates := vm.World().Isolates()
	pressure := vm.Heap().PressurePercent()

	type sample struct {
		iso        *core.Isolate
		e          *govEntry
		instrDelta int64
		allocDelta int64
		satDelta   int64
	}
	samples := make([]sample, 0, len(isolates))
	var totalDelta int64
	var activeN int64
	for _, iso := range isolates {
		if iso.IsIsolate0() || iso.Killed() {
			continue
		}
		e, ok := g.entries[iso]
		if !ok {
			e = &govEntry{}
			g.entries[iso] = e
		}
		instr := iso.Account().Instructions.Load()
		alloc := vm.Heap().CountersFor(iso.ID()).Bytes.Load()
		sat := iso.Account().RPCSaturated.Load()
		if !e.primed {
			e.primed = true
			e.lastInstr, e.lastAllocBytes, e.lastSat = instr, alloc, sat
			continue
		}
		s := sample{
			iso:        iso,
			e:          e,
			instrDelta: instr - e.lastInstr,
			allocDelta: alloc - e.lastAllocBytes,
			satDelta:   sat - e.lastSat,
		}
		e.lastInstr, e.lastAllocBytes, e.lastSat = instr, alloc, sat
		totalDelta += s.instrDelta
		if s.instrDelta > 0 {
			activeN++
		}
		samples = append(samples, s)
	}

	var kills []*core.Isolate
	for _, s := range samples {
		e := s.iso.Account()
		critical := (s.allocDelta >= g.cfg.AllocBytesPerWindow && pressure >= g.cfg.HeapHighPct) ||
			s.allocDelta >= 4*g.cfg.AllocBytesPerWindow
		cpuHot := activeN > 1 && s.instrDelta*activeN > totalDelta*g.cfg.CPUFactor
		sleeperHot := e.SleepingThreads.Load() > g.cfg.SleepersMax
		satHot := s.satDelta >= saturationsPerWindow
		hot := critical || cpuHot || sleeperHot || satHot
		if g.applyLocked(s.iso, s.e, hot, critical) {
			kills = append(kills, s.iso)
		}
	}
	return kills
}

// applyLocked updates one isolate's streaks and stage; it reports
// whether the isolate should be killed. g.mu held.
func (g *Governor) applyLocked(iso *core.Isolate, e *govEntry, hot, critical bool) bool {
	if e.stage == StageKilled {
		return false
	}
	if critical {
		e.criticalStreak++
	} else {
		e.criticalStreak = 0
	}
	if hot {
		e.hotStreak++
		e.calmStreak = 0
	} else {
		e.hotStreak = 0
		e.calmStreak++
		if e.stage != StageNormal && e.calmStreak >= calmAfter {
			iso.SetThrottled(false)
			if e.baseWeight > 0 {
				iso.SetWeight(e.baseWeight)
			}
			e.stage = StageNormal
			e.baseWeight = 0
			g.restores.Add(1)
		}
		return false
	}
	if e.stage < StageDeprioritized && e.hotStreak >= g.cfg.DeprioritizeAfter {
		e.baseWeight = iso.Weight()
		w := e.baseWeight / g.cfg.DeprioritizeDivisor
		if w < 1 {
			w = 1
		}
		iso.SetWeight(w)
		e.stage = StageDeprioritized
		g.deprioritized.Add(1)
	}
	if e.stage < StageThrottled && e.hotStreak >= g.cfg.ThrottleAfter {
		iso.SetThrottled(true)
		e.stage = StageThrottled
		g.throttled.Add(1)
	}
	if e.criticalStreak >= g.cfg.KillAfter {
		e.stage = StageKilled
		return true
	}
	return false
}
