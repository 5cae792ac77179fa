package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Node is one span rendered for the JSON tree export served by
// sjoind's /v1/joins/{id}/trace endpoint.
type Node struct {
	ID        uint64         `json:"id"`
	Parent    uint64         `json:"parent,omitempty"`
	Name      string         `json:"name"`
	Worker    string         `json:"worker,omitempty"`
	StartNano int64          `json:"start_unix_nano"`
	DurMicros int64          `json:"dur_micros"`
	Attrs     map[string]any `json:"attrs,omitempty"`
	Children  []*Node        `json:"children,omitempty"`
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Int
		}
	}
	return m
}

func durNanos(s Span) int64 {
	if s.Done == 0 || s.Done < s.Start {
		return 0
	}
	return s.Done - s.Start
}

func durMicros(s Span) int64 { return durNanos(s) / 1e3 }

// Tree assembles the recorded spans into a forest. Spans whose parent
// is unknown (or would point forward in append order, which a cycle
// from malformed remote data necessarily does) are promoted to roots,
// so the result is always finite and serialisable. Duplicate span ids
// keep the first occurrence.
func (t *Tracer) Tree() []*Node {
	spans := t.Spans()
	nodes := make(map[SpanID]*Node, len(spans))
	order := make([]*Node, 0, len(spans))
	ids := make([]SpanID, 0, len(spans))
	for _, s := range spans {
		if _, dup := nodes[s.ID]; dup {
			continue
		}
		n := &Node{
			ID:        uint64(s.ID),
			Parent:    uint64(s.Parent),
			Name:      s.Name,
			Worker:    s.Worker,
			StartNano: s.Start,
			DurMicros: durMicros(s),
			Attrs:     attrMap(s.Attrs),
		}
		nodes[s.ID] = n
		order = append(order, n)
		ids = append(ids, s.ID)
	}
	seen := make(map[SpanID]bool, len(order))
	var roots []*Node
	for i, n := range order {
		p := nodes[SpanID(n.Parent)]
		if n.Parent != 0 && p != nil && p != n && seen[SpanID(n.Parent)] {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
		seen[ids[i]] = true
	}
	return roots
}

// Graft attaches children under the node with the given span id,
// searching the forest recursively. It reports whether the parent was
// found. The fleet router uses it to stitch shard-local join trees
// (fetched over HTTP as Node forests) under its own proxy spans.
func Graft(roots []*Node, parent uint64, children []*Node) bool {
	if len(children) == 0 {
		return false
	}
	for _, n := range roots {
		if n.ID == parent {
			n.Children = append(n.Children, children...)
			return true
		}
		if Graft(n.Children, parent, children) {
			return true
		}
	}
	return false
}

// chromeEvent is one entry in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serialises the trace in Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. Each worker becomes a
// named thread lane; spans are complete ("X") events with microsecond
// timestamps relative to the earliest span.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	var t0 int64 = -1
	workers := map[string]int{}
	var names []string
	for _, s := range spans {
		if t0 < 0 || s.Start < t0 {
			t0 = s.Start
		}
		if s.Worker != "" {
			if _, ok := workers[s.Worker]; !ok {
				workers[s.Worker] = 0
				names = append(names, s.Worker)
			}
		}
	}
	sort.Strings(names)
	for i, n := range names {
		workers[n] = i + 1
	}
	ct := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "spatialjoin"},
	})
	ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "orchestrator"},
	})
	for _, n := range names {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: workers[n],
			Args: map[string]any{"name": n},
		})
	}
	for _, s := range spans {
		end := s.Done
		if end < s.Start {
			end = s.Start
		}
		args := attrMap(s.Attrs)
		if args == nil {
			args = map[string]any{}
		}
		args["span_id"] = uint64(s.ID)
		if s.Parent != 0 {
			args["parent_span_id"] = uint64(s.Parent)
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start-t0) / 1e3,
			Dur:  float64(end-s.Start) / 1e3,
			Pid:  1,
			Tid:  workers[s.Worker],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}
