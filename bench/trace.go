package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The layers of the system under test, named after its packages. Spans of
// layer "bench" are harness glue (a session, a cold spawn) that only groups
// the calls below it; their self time is the harness's own cost.
var layers = []string{"interp", "heap", "core", "sched", "rpc", "serve", "loader", "osgi"}

const benchLayer = "bench"

// maxSpans bounds the spans kept in memory per run; durations keep being
// sampled after the cap, only the raw span is dropped (and counted).
const maxSpans = 100_000

// span is one timed call into a layer's public function, recorded by the
// harness around the call (tracing inside the program is a later issue).
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since recorder start
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for roots
	Track  int    `json:"track"`  // client goroutine
	ID     int64  `json:"id"`     // session or iteration the span belongs to
}

// recorder owns the spans of one run. Each client goroutine records through
// its own track so the hot path takes no lock; tracks merge at the end.
type recorder struct {
	t0 time.Time
	// on says whether spans are kept; the goroutine driving the run flips
	// it between units of work while client goroutines read it.
	on atomic.Bool
	// scale holds the bits of the float64 every calibrated track multiplies
	// its durations by (calib.go); the driving goroutine refreshes it at
	// the start of each round.
	scale  atomic.Uint64
	mu     sync.Mutex
	tracks []*track
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.scale.Store(math.Float64bits(1))
	return r
}

// sampleKey names a sample series. end builds it from its two arguments
// without allocating, which matters on legs that time a million calls.
type sampleKey struct{ layer, name string }

// parseKey splits "layer.name" at the first dot (layer names have none).
func parseKey(key string) sampleKey {
	layer, name, _ := strings.Cut(key, ".")
	return sampleKey{layer, name}
}

// track is one goroutine's view of the recorder: duration samples keyed by
// "layer.name" (always kept — end-to-end metrics are built from them) and
// raw spans (kept only while tracing is on).
type track struct {
	rec *recorder
	id  int
	// calibrated tracks time CPU-bound work and scale it to nominal host
	// speed; the others (clients that mostly sleep) keep the wall clock.
	calibrated bool
	samples    map[sampleKey][]float64 // seconds, or whatever observe was given
	spans      []span
	dropped    int64
}

func (r *recorder) newTrack(calibrated bool) *track {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &track{rec: r, id: len(r.tracks), calibrated: calibrated, samples: make(map[sampleKey][]float64)}
	r.tracks = append(r.tracks, t)
	return t
}

// end closes a region opened at start: it samples the duration under
// "layer.name" and, when tracing, records the span. id ties the span to
// its iteration or session.
func (t *track) end(layer, name string, id int64, start time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(start)
	key := sampleKey{layer, name}
	sec := d.Seconds()
	if t.calibrated {
		sec *= math.Float64frombits(t.rec.scale.Load())
	}
	t.samples[key] = append(t.samples[key], sec)
	if t.rec.on.Load() {
		if len(t.spans) >= maxSpans {
			t.dropped++
		} else {
			t.spans = append(t.spans, span{
				Name: name, Layer: layer, Track: t.id, ID: id, Parent: -1,
				Start: start.Sub(t.rec.t0).Nanoseconds(), End: now.Sub(t.rec.t0).Nanoseconds(),
			})
		}
	}
	return d
}

// observe samples a value that is not a duration (a count per iteration)
// under key, so it gets the same median treatment.
func (t *track) observe(key string, v float64) {
	k := parseKey(key)
	t.samples[k] = append(t.samples[k], v)
}

// samples merges every track's values for key ("layer.name").
func (r *recorder) samples(key string) []float64 {
	k := parseKey(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, t := range r.tracks {
		out = append(out, t.samples[k]...)
	}
	return out
}

// medianOf is the median duration of key in the given unit (1e3 for ms,
// 1e6 for us, 1e9 for ns), or 0 when the run never timed it.
func (r *recorder) medianOf(key string, perSecond float64) float64 {
	s := r.samples(key)
	if len(s) == 0 {
		return 0
	}
	return median(s) * perSecond
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Dropped  int64              `json:"dropped_spans"`
	SelfNS   map[string]float64 `json:"self_ns_by_layer"`
	Spans    []span             `json:"spans"`
}

// finish merges the tracks, links each span to the innermost span of the
// same track that contains it, and returns the spans with per-layer self
// time (a span's duration minus the part its children cover).
func (r *recorder) finish() (spans []span, selfNS map[string]float64, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tracks {
		spans = append(spans, t.spans...)
		dropped += t.dropped
	}
	return spans, linkAndSelf(spans), dropped
}

// linkAndSelf sets Parent on every span and sums self time per layer.
// Spans nest properly within a track (a region is closed before its parent
// is), so after sorting by start (longer first on ties) a stack finds the
// parent.
func linkAndSelf(spans []span) map[string]float64 {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Track != y.Track {
			return x.Track < y.Track
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	self := make([]int64, len(spans))
	var stack []int
	curTrack := -1
	for _, i := range order {
		s := &spans[i]
		if s.Track != curTrack {
			stack, curTrack = stack[:0], s.Track
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End <= s.Start {
			stack = stack[:len(stack)-1]
		}
		self[i] = s.End - s.Start
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.Parent = p
			self[p] -= s.End - s.Start
		}
		stack = append(stack, i)
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Layer] += float64(self[i])
	}
	return out
}

// writeTrace stores the spans as one JSON file.
func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
