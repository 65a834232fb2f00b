package core

import (
	"fmt"
	"sort"
)

// Thresholds configures the administrator-side denial-of-service
// detectors. The paper positions accounting as "an assistance for an
// administrator to locate possible resource problems" (§6); these
// detectors encode the decision rules the evaluation's administrator
// applies in §4.3. A zero threshold disables the corresponding check.
type Thresholds struct {
	// MaxLiveBytes flags isolates holding more live memory than this
	// after a collection (attack A3).
	MaxLiveBytes int64
	// MaxGCActivations flags isolates that triggered more collections
	// than this (attack A4).
	MaxGCActivations int64
	// MaxThreadsCreated flags isolates that created more threads than
	// this (attack A5).
	MaxThreadsCreated int64
	// MinCPUShare flags isolates whose share of all CPU samples exceeds
	// this fraction (attack A6). Expressed in percent (0-100).
	MinCPUSharePercent int64
	// MinCPUSamples gates the CPU-share check until enough samples exist.
	MinCPUSamples int64
	// MaxSleepingThreads flags isolates with more threads parked in
	// sleep/wait inside their code than this (attack A7).
	MaxSleepingThreads int64
	// MaxConnections flags isolates holding more live connections.
	MaxConnections int64
	// MaxIOBytes flags isolates that read+wrote more connection bytes.
	MaxIOBytes int64
}

// DefaultThresholds returns a conservative configuration used by the
// attack harness and the gateway example.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MaxLiveBytes:       8 << 20,
		MaxGCActivations:   8,
		MaxThreadsCreated:  64,
		MinCPUSharePercent: 80,
		MinCPUSamples:      200,
		MaxSleepingThreads: 4,
		MaxConnections:     128,
		MaxIOBytes:         64 << 20,
	}
}

// Finding names one isolate flagged by a detector.
type Finding struct {
	IsolateID   int32
	IsolateName string
	Rule        string
	Observed    int64
	Limit       int64
}

func (f Finding) String() string {
	return fmt.Sprintf("isolate %d (%s): %s observed=%d limit=%d",
		f.IsolateID, f.IsolateName, f.Rule, f.Observed, f.Limit)
}

// Detect applies the thresholds to a set of snapshots and returns the
// findings, most-severe metric first per rule. Isolate0 is exempt from CPU
// and memory rules: the OSGi runtime legitimately dominates at startup.
func Detect(snaps []Snapshot, th Thresholds) []Finding {
	var out []Finding
	var totalSamples int64
	for i := range snaps {
		totalSamples += snaps[i].CPUSamples
	}
	for i := range snaps {
		s := &snaps[i]
		if s.State != StateLive {
			continue
		}
		isRuntime := s.IsolateID == 0
		if th.MaxLiveBytes > 0 && !isRuntime && s.LiveBytes > th.MaxLiveBytes {
			out = append(out, Finding{s.IsolateID, s.IsolateName, "live-memory", s.LiveBytes, th.MaxLiveBytes})
		}
		if th.MaxGCActivations > 0 && s.GCActivations > th.MaxGCActivations {
			out = append(out, Finding{s.IsolateID, s.IsolateName, "gc-activations", s.GCActivations, th.MaxGCActivations})
		}
		if th.MaxThreadsCreated > 0 && s.ThreadsCreated > th.MaxThreadsCreated {
			out = append(out, Finding{s.IsolateID, s.IsolateName, "threads-created", s.ThreadsCreated, th.MaxThreadsCreated})
		}
		if th.MinCPUSharePercent > 0 && !isRuntime && totalSamples >= th.MinCPUSamples && totalSamples > 0 {
			share := s.CPUSamples * 100 / totalSamples
			if share > th.MinCPUSharePercent {
				out = append(out, Finding{s.IsolateID, s.IsolateName, "cpu-share", share, th.MinCPUSharePercent})
			}
		}
		if th.MaxSleepingThreads > 0 && s.SleepingThreads >= th.MaxSleepingThreads {
			out = append(out, Finding{s.IsolateID, s.IsolateName, "sleeping-threads", s.SleepingThreads, th.MaxSleepingThreads})
		}
		if th.MaxConnections > 0 && s.LiveConnections > th.MaxConnections {
			out = append(out, Finding{s.IsolateID, s.IsolateName, "connections", s.LiveConnections, th.MaxConnections})
		}
		if th.MaxIOBytes > 0 && s.IOBytesRead+s.IOBytesWritten > th.MaxIOBytes {
			out = append(out, Finding{s.IsolateID, s.IsolateName, "io-bytes", s.IOBytesRead + s.IOBytesWritten, th.MaxIOBytes})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Observed > out[j].Observed
	})
	return out
}
