package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// A run sets its workload up at least minSetups times, and keeps going
// until the set-ups have taken setupBudget together (at most maxSetups):
// setup_s is their median, and a set-up of a few milliseconds needs many
// repeats before its median is steady.
const (
	minSetups   = 5
	maxSetups   = 31
	setupBudget = 2 * time.Second
)

// calibrateEvery is how stale the host-speed factor may get before a round
// re-times the reference kernel (about a millisecond of work).
const calibrateEvery = 50 * time.Millisecond

// config is one run's command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// workloadDef is one benchmark workload. setup builds everything the
// measured window needs (VMs, classes, warm-up, snapshots, pools) and is
// what setup_s times; the environment it returns is then verified against
// the reference outputs, measured, and closed.
type workloadDef struct {
	name  string
	why   string
	setup func(h *harness) (env, error)
}

type env interface {
	// verify checks outputs against the reference interpreter and
	// expected.json. It runs once, outside setup_s and outside the window.
	verify(h *harness) error
	// measure runs the workload for h.window and stores its metrics.
	measure(h *harness) error
	// close stops everything setup started and waits for it.
	close()
}

var workloads = []workloadDef{specCompute, heapChurn, bundleCalls, tenantGateway}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// harness carries one run's state: the seeded generator, the recorder,
// the op counters and the metrics produced so far.
type harness struct {
	cfg    config
	rng    *rand.Rand
	rec    *recorder
	main   *track
	window time.Duration

	attempted atomic.Int64
	failed    atomic.Int64

	mu        sync.Mutex
	metrics   map[string]float64
	notes     []string
	checksums map[string]int64 // program → first-iteration output, for expected.json
	instrs    map[string]int64 // program → guest instructions of one iteration
	problems  []string         // output-check failures

	// unit times of the main leg with tracing off and on, for trace_overhead
	unitOff, unitOn []float64

	calibratedAt time.Time // when the reference kernel was last timed
}

func newHarness(cfg config) *harness {
	rec := newRecorder()
	return &harness{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.seed)),
		rec:       rec,
		main:      rec.newTrack(true),
		window:    time.Duration(cfg.seconds * float64(time.Second)),
		metrics:   make(map[string]float64),
		checksums: make(map[string]int64),
		instrs:    make(map[string]int64),
	}
}

// set stores a metric value; a name outside the tables is a harness bug.
func (h *harness) set(name string, v float64) {
	if _, kind := lookupMetric(name); kind == "" {
		panic("bench: unknown metric " + name)
	}
	h.mu.Lock()
	h.metrics[name] = v
	h.mu.Unlock()
}

func (h *harness) note(format string, args ...any) {
	h.mu.Lock()
	h.notes = append(h.notes, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// op counts one attempted operation; a non-nil err (refusal, guest
// failure, wrong output) counts it as failed and keeps the reason.
func (h *harness) op(err error) {
	h.attempted.Add(1)
	if err != nil {
		h.fail(err)
	}
}

func (h *harness) fail(err error) {
	h.failed.Add(1)
	h.mu.Lock()
	if len(h.problems) < 20 {
		h.problems = append(h.problems, err.Error())
	}
	h.mu.Unlock()
}

// recordOutput keeps a program's first-iteration checksum and per-iteration
// instruction count; traced and untraced runs of one seed must agree on both.
func (h *harness) recordOutput(program string, checksum, instrs int64) {
	h.mu.Lock()
	h.checksums[program] = checksum
	h.instrs[program] = instrs
	h.mu.Unlock()
}

// traceRound switches span recording for the next unit of work: traced
// runs alternate on and off so that trace_overhead compares like with like
// inside one process. It returns whether the unit is traced.
func (h *harness) traceRound(i int) bool {
	if time.Since(h.calibratedAt) > calibrateEvery {
		h.calibrate()
	}
	return h.toggleTrace(i)
}

// toggleTrace is traceRound without the calibration, for a driver that
// flips tracing while the workload's own goroutines keep the CPUs busy.
func (h *harness) toggleTrace(i int) bool {
	on := h.cfg.trace && i%2 == 0
	h.rec.on.Store(on)
	return on
}

// calibrate re-times the reference kernel and stores the factor that scales
// the durations recorded from now on to nominal host speed.
func (h *harness) calibrate() float64 {
	scale := hostScale()
	h.rec.scale.Store(math.Float64bits(scale))
	h.main.observe("bench.host_scale", scale)
	h.calibratedAt = time.Now()
	return scale
}

// unit records the duration of one unit of the main leg (a round, a
// session) for trace_overhead.
func (h *harness) unit(traced bool, d time.Duration) {
	h.mu.Lock()
	if traced {
		h.unitOn = append(h.unitOn, d.Seconds())
	} else {
		h.unitOff = append(h.unitOff, d.Seconds())
	}
	h.mu.Unlock()
}

// finishTrace stores trace_overhead and the per-layer self-time shares.
func (h *harness) finishTrace() (spans []span, selfNS map[string]float64, dropped int64) {
	h.rec.on.Store(false)
	spans, selfNS, dropped = h.rec.finish()
	if !h.cfg.trace {
		return spans, selfNS, dropped
	}
	if len(h.unitOn) > 0 && len(h.unitOff) > 0 {
		h.set("trace_overhead", median(h.unitOn)/median(h.unitOff)-1)
	}
	total := 0.0
	for _, ns := range selfNS {
		total += ns
	}
	if total > 0 {
		for _, l := range layers {
			h.set(l+".self_share", selfNS[l]/total)
		}
	}
	return spans, selfNS, dropped
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      hostInfo           `json:"host"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics"`
	Checksums map[string]int64   `json:"checksums"`
	Instrs    map[string]int64   `json:"instructions"`
	Notes     []string           `json:"notes,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Claim     *string            `json:"claim"` // always null: the harness claims no gain
}

// runWorkload sets the workload up several times, verifies the last
// environment, measures it and returns every metric of the selected kind.
func runWorkload(w workloadDef, cfg config, traceOut string) (*runResult, error) {
	h := newHarness(cfg)
	var (
		e      env
		setups []float64
	)
	for spent := time.Duration(0); len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget); {
		if e != nil {
			e.close()
		}
		// Every repeat draws the same inputs: the generator restarts.
		h.rng = rand.New(rand.NewSource(cfg.seed))
		scale := h.calibrate()
		t0 := time.Now()
		var err error
		if e, err = w.setup(h); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds()*scale)
		spent += d
	}
	defer e.close()
	if err := e.verify(h); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	if err := checkExpected(h, w.name); err != nil {
		h.op(err)
	}
	if err := e.measure(h); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	h.set("setup_s", median(setups))
	scales := h.rec.samples("bench.host_scale")
	h.note("host speed during the run: %.2f of nominal (median of %d reference-kernel timings)", median(scales), len(scales))

	spans, selfNS, dropped := h.finishTrace()
	if cfg.trace && traceOut != "" {
		tf := traceFile{Workload: w.name, Seed: cfg.seed, Dropped: dropped, SelfNS: selfNS, Spans: spans}
		if err := writeTrace(traceOut, tf); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}

	res := &runResult{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host:      hostFingerprint(),
		Attempted: h.attempted.Load(), Failed: h.failed.Load(),
		Metrics:   make(map[string]float64),
		Checksums: h.checksums, Instrs: h.instrs,
		Notes: h.notes, Problems: h.problems,
	}
	res.Correct = res.Failed == 0
	// The record keeps every metric the run measured; the selected kind
	// (what the acceptance driver reads) must be complete.
	for name, v := range h.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", w.name, name)
		}
		res.Metrics[name] = v
	}
	for _, d := range contractMetrics(cfg.trace) {
		v, ok := res.Metrics[d.Name]
		if !cfg.trace && (!ok || v == 0) {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, d.Name)
		}
		res.Metrics[d.Name] = v // a layer the workload bypasses reads 0
	}
	return res, nil
}

// until runs fn repeatedly until the deadline, and at least min times so
// that a very short window still measures something.
func until(deadline time.Time, min int, fn func(i int)) {
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		fn(i)
	}
}
