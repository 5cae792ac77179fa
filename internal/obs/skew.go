package obs

import (
	"sort"
	"strings"
)

// SkewReport is the derived diagnostics view of a join trace: where the
// time went, which worker absorbed it, and how much replication each
// agreement type cost. It is computed from span names and attributes,
// so locally-run and cluster-stitched traces reduce identically.
type SkewReport struct {
	Tasks            int            `json:"tasks"`
	TasksPerWorker   map[string]int `json:"tasks_per_worker,omitempty"`
	MaxTaskMicros    int64          `json:"max_task_micros"`
	MedianTaskMicros int64          `json:"median_task_micros"`
	// StragglerRatio is max/median task duration; 1.0 means perfectly
	// balanced partitions, large values mean LPT had skew to absorb. It
	// is computed from nanosecond spans (each counted as at least one
	// clock tick), so it is ≥ 1 whenever a task ran — including joins
	// whose tasks all finish below the microsecond the fields above are
	// reported in.
	StragglerRatio float64 `json:"straggler_ratio"`
	// ReplicationBytes breaks the shuffled replica volume down by the
	// agreement type that caused it ("R": LPiB agreements replicating
	// the outer side, "S": DIFF agreements replicating the inner side).
	ReplicationBytes   map[string]int64 `json:"replication_bytes_by_agreement,omitempty"`
	SupplementaryPairs int64            `json:"supplementary_pairs"`
	ShuffleBytes       int64            `json:"shuffle_bytes"`
	RemoteBytes        int64            `json:"remote_bytes"`
	// ReplicationBytesByClass breaks the two-layer non-point join's
	// replica volume down by tile class (A/B/C/D): A bytes are the
	// native copies, B/C/D bytes are what MBR extent replication cost on
	// top. Empty for point joins.
	ReplicationBytesByClass map[string]int64 `json:"replication_bytes_by_class,omitempty"`
}

// Skew reduces the recorded spans to a SkewReport.
func (t *Tracer) Skew() SkewReport {
	var rep SkewReport
	spans := t.Spans()
	var durs []int64 // task spans in nanoseconds
	for _, s := range spans {
		switch s.Name {
		case SpanTask:
			rep.Tasks++
			durs = append(durs, max(durNanos(s), 1))
			if s.Worker != "" {
				if rep.TasksPerWorker == nil {
					rep.TasksPerWorker = map[string]int{}
				}
				rep.TasksPerWorker[s.Worker]++
			}
		case SpanReplicate:
			for _, a := range s.Attrs {
				if set, ok := strings.CutPrefix(a.Key, "repl_bytes_"); ok && !a.IsStr {
					if rep.ReplicationBytes == nil {
						rep.ReplicationBytes = map[string]int64{}
					}
					rep.ReplicationBytes[strings.ToUpper(set)] += a.Int
				}
			}
		case SpanAssign:
			for _, a := range s.Attrs {
				if class, ok := strings.CutPrefix(a.Key, "repl_class_bytes_"); ok && !a.IsStr {
					if rep.ReplicationBytesByClass == nil {
						rep.ReplicationBytesByClass = map[string]int64{}
					}
					rep.ReplicationBytesByClass[strings.ToUpper(class)] += a.Int
				}
			}
		case SpanShuffle:
			for _, a := range s.Attrs {
				switch a.Key {
				case "shuffled_bytes":
					rep.ShuffleBytes += a.Int
				case "remote_bytes":
					rep.RemoteBytes += a.Int
				}
			}
		case SpanSupplementary:
			for _, a := range s.Attrs {
				if a.Key == "pairs_in" {
					rep.SupplementaryPairs += a.Int
				}
			}
		}
	}
	if len(durs) > 0 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		maxNs, medianNs := durs[len(durs)-1], durs[len(durs)/2]
		rep.MaxTaskMicros = maxNs / 1e3
		rep.MedianTaskMicros = medianNs / 1e3
		rep.StragglerRatio = float64(maxNs) / float64(medianNs)
	}
	return rep
}
