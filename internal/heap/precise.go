package heap

// PreciseStats is the result of the precise accounting pass for one
// isolate: everything reachable from the isolate's roots, with shared
// objects counted for every isolate that reaches them.
type PreciseStats struct {
	Objects       int64
	Bytes         int64
	SharedObjects int64 // objects also reachable from other isolates
	SharedBytes   int64
}

// PreciseAccounting computes per-isolate reachable memory with shared
// objects charged to every isolate that references them. This is the
// accounting strategy the paper rejects in §3.2 ("doing so would require
// maintaining a list of isolates that use the shared object, thus would
// introduce a new list traversal for all objects during garbage
// collection"): the cost is one full trace per isolate instead of one
// global trace. It does not collect garbage; pair it with Collect. It is
// provided as the ablation counterpart of the adopted first-tracer design
// (see BenchmarkAblationPreciseAccounting).
func (h *Heap) PreciseAccounting(rootSets []RootSet) map[IsolateID]*PreciseStats {
	out := make(map[IsolateID]*PreciseStats, len(rootSets))
	// reachCount tracks how many isolates reach each object so shared
	// objects can be identified in a second pass.
	reachCount := make(map[*Object]int)
	perIso := make(map[IsolateID]map[*Object]bool, len(rootSets))

	var stack []*Object
	for _, rs := range rootSets {
		seen := perIso[rs.Isolate]
		if seen == nil {
			seen = make(map[*Object]bool)
			perIso[rs.Isolate] = seen
		}
		for _, root := range rs.Refs {
			if root == nil || seen[root] {
				continue
			}
			stack = append(stack[:0], root)
			for len(stack) > 0 {
				o := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[o] {
					continue
				}
				seen[o] = true
				for i := range o.Elems {
					if r := o.Elems[i].R; r != nil && !seen[r] {
						stack = append(stack, r)
					}
				}
				if holder, ok := o.Native().(RefHolder); ok {
					for _, r := range holder.Refs() {
						if r != nil && !seen[r] {
							stack = append(stack, r)
						}
					}
				}
			}
		}
	}
	for iso, seen := range perIso {
		stats := &PreciseStats{}
		out[iso] = stats
		for o := range seen {
			stats.Objects++
			stats.Bytes += o.Size()
			reachCount[o]++
		}
	}
	for iso, seen := range perIso {
		stats := out[iso]
		for o := range seen {
			if reachCount[o] > 1 {
				stats.SharedObjects++
				stats.SharedBytes += o.Size()
			}
		}
	}
	return out
}
