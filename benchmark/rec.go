package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"spatialjoin/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer: name, start and end (ns since the recorder
// started), the span that caused it, and the repetition (op) it belongs
// to. Parent is -1 for a root.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Op         int
	Lane       string // worker attribution of imported obs task spans
}

// layerPass is the traced pass that follows the timed window: it wraps
// every call into a layer in a span, keeps the spans in memory, and
// collects the counts read at the same boundaries. It is driven from
// one goroutine.
type layerPass struct {
	t0      time.Time
	spans   []span
	stack   []int // open spans, innermost last
	op      int   // current repetition
	vals    map[string]float64
	samples map[string][]float64
}

func newLayerPass() *layerPass {
	return &layerPass{t0: time.Now(), vals: map[string]float64{}, samples: map[string][]float64{}}
}

// layerReps is how often the layer pass repeats each measured call; a
// timing metric is the median over the repetitions.
const layerReps = 3

// reps runs f layerReps times, tagging the spans of each run with its
// repetition number.
func (lp *layerPass) reps(f func()) {
	for lp.op = 0; lp.op < layerReps; lp.op++ {
		f()
	}
	lp.op = 0
}

// timed runs f inside a span. A span named X feeds the metric X_ms.
func (lp *layerPass) timed(name string, f func()) time.Duration {
	parent := -1
	if n := len(lp.stack); n > 0 {
		parent = lp.stack[n-1]
	}
	id := len(lp.spans)
	lp.spans = append(lp.spans, span{Name: name, Parent: parent, Op: lp.op})
	lp.stack = append(lp.stack, id)
	start := time.Now()
	f()
	end := time.Now()
	lp.stack = lp.stack[:len(lp.stack)-1]
	lp.spans[id].Start = start.Sub(lp.t0).Nanoseconds()
	lp.spans[id].End = end.Sub(lp.t0).Nanoseconds()
	return end.Sub(start)
}

// set records a count or ratio read at a layer boundary.
func (lp *layerPass) set(name string, v float64) { lp.vals[name] = v }

// sample records one repetition's reading of a value the layer reports
// itself (a phase time, a skew); the metric is the median of them.
func (lp *layerPass) sample(name string, v float64) {
	lp.samples[name] = append(lp.samples[name], v)
}

// importObs copies the spans a library tracer recorded during the
// innermost open benchmark span under it, named obs.span.<name>, so the
// library's own phase spans appear in the same trace and feed the
// obs.span.*_ms metrics. With only given, spans of other names are
// skipped. It returns the number of spans the tracer held.
func (lp *layerPass) importObs(tr *obs.Tracer, only ...string) int {
	parent := lp.stack[len(lp.stack)-1]
	base := lp.t0.UnixNano()
	ids := map[obs.SpanID]int{}
	spans := tr.Spans()
	for _, s := range spans {
		if len(only) > 0 && !slices.Contains(only, s.Name) {
			continue
		}
		ids[s.ID] = len(lp.spans)
		lp.spans = append(lp.spans, span{
			Name: "obs.span." + s.Name, Start: s.Start - base, End: max(s.Done, s.Start) - base,
			Parent: parent, Op: lp.op, Lane: s.Worker,
		})
	}
	for _, s := range spans {
		if p, ok := ids[s.Parent]; ok {
			lp.spans[ids[s.ID]].Parent = p
		}
	}
	return len(spans)
}

// attrInt returns the integer attribute key of the first span called
// name in the tracer, or 0.
func attrInt(tr *obs.Tracer, name, key string) int64 {
	for _, s := range tr.Spans() {
		if s.Name != name {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == key && !a.IsStr {
				return a.Int
			}
		}
	}
	return 0
}

// spanMs returns the median over repetitions of the time spent in
// spans called name, in ms (0 when there is none).
func (lp *layerPass) spanMs(name string) float64 {
	byOp := map[int]float64{}
	for _, s := range lp.spans {
		if s.Name == name {
			byOp[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	var ms []float64
	for _, v := range byOp {
		ms = append(ms, v)
	}
	return median(ms)
}

// metrics folds the pass into per-layer metrics: for every declared
// metric X_ms that has spans called X, their spanMs; the median of each
// sampled value; and the recorded counts. Spans whose name no metric
// declares stay trace detail.
func (lp *layerPass) metrics(declared []metricSpec) map[string]float64 {
	named := map[string]bool{}
	for _, s := range lp.spans {
		named[s.Name] = true
	}
	out := map[string]float64{}
	for _, m := range declared {
		if name, ok := strings.CutSuffix(m.Name, "_ms"); ok && named[name] {
			out[m.Name] = lp.spanMs(name)
		}
	}
	for k, v := range lp.samples {
		out[k] = median(v)
	}
	for k, v := range lp.vals {
		out[k] = v
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of it that
// its child spans cover (overlapping children are counted once).
func (lp *layerPass) selfTimes() []int64 {
	children := make([][]int, len(lp.spans))
	for i, s := range lp.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(lp.spans))
	for i, s := range lp.spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int { return cmp.Compare(lp.spans[a].Start, lp.spans[b].Start) })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(lp.spans[k].Start, upTo), min(lp.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeTrace writes the spans in Chrome trace-event format (open it in
// Perfetto or chrome://tracing). Benchmark spans share lane 0; imported
// task spans get one lane per library worker.
func (lp *layerPass) writeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var lanes []string
	for _, s := range lp.spans {
		if s.Lane != "" && !slices.Contains(lanes, s.Lane) {
			lanes = append(lanes, s.Lane)
		}
	}
	slices.Sort(lanes)
	self := lp.selfTimes()
	events := make([]event, 0, len(lp.spans))
	for i, s := range lp.spans {
		args := map[string]any{"span": i, "op": s.Op, "self_ms": float64(self[i]) / 1e6}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: slices.Index(lanes, s.Lane) + 1, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	js, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, js, 0o644)
}
