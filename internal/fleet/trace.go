package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"spatialjoin/internal/obs"
)

// routerTrace is one retained routed join: the router's own fleet spans
// plus a pointer to the shard-local execution, fetched and grafted in
// lazily when the trace is requested.
type routerTrace struct {
	mode   string
	tracer *obs.Tracer
	leg    joinLeg
}

// recordTrace retains a finished routed join's trace and returns its
// router-scoped join id.
func (rt *Router) recordTrace(mode string, tr *obs.Tracer, leg joinLeg) int64 {
	return rt.traces.Put(routerTrace{mode: mode, tracer: tr, leg: leg})
}

// TraceResponse is the payload of the router's GET /v1/joins/{id}/trace:
// the fleet-level span tree with each shard's join tree grafted under
// the proxy span that dispatched it.
type TraceResponse struct {
	JoinID int64       `json:"join_id"`
	Mode   string      `json:"mode"`
	Shards []string    `json:"shards"`
	Spans  int         `json:"spans"`
	Tree   []*obs.Node `json:"tree"`
}

// shardTraceWire is the slice of the shard trace response the router
// needs for stitching.
type shardTraceWire struct {
	Tree []*obs.Node `json:"tree"`
}

func (rt *Router) handleJoinTrace(w http.ResponseWriter, r *http.Request) (int, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("fleet: bad join id %q", r.PathValue("id"))
	}
	jt, ok := rt.traces.Get(id)
	if !ok {
		return http.StatusNotFound, fmt.Errorf("fleet: no retained trace for join %d", id)
	}
	leg := jt.leg
	resp := &TraceResponse{JoinID: id, Mode: jt.mode, Shards: []string{leg.shardID}, Tree: jt.tracer.Tree()}
	// A shard that is gone, unreachable or has evicted the join leaves
	// the fleet spans served alone.
	if sh := rt.shardByID(leg.shardID); sh != nil && sh.alive.Load() {
		body, _, err := rt.shardGet(r.Context(), sh, "/v1/joins/"+strconv.FormatInt(leg.joinID, 10)+"/trace")
		var wire shardTraceWire
		if err == nil && json.Unmarshal(body, &wire) == nil {
			// Shard span ids were minted in a different process; lift them
			// clear of the router's own.
			rebase(wire.Tree, 1<<32, leg.shardID)
			obs.Graft(resp.Tree, leg.span, wire.Tree)
		}
	}
	resp.Spans = countNodes(resp.Tree)
	return writeJSON(w, http.StatusOK, resp), nil
}

// rebase shifts every span id in the forest by base and prefixes worker
// lanes with the shard id, keeping stitched trees unambiguous.
func rebase(nodes []*obs.Node, base uint64, shardID string) {
	for _, n := range nodes {
		n.ID += base
		if n.Parent != 0 {
			n.Parent += base
		}
		if n.Worker == "" {
			n.Worker = shardID
		} else {
			n.Worker = shardID + "/" + n.Worker
		}
		rebase(n.Children, base, shardID)
	}
}

func countNodes(nodes []*obs.Node) int {
	n := len(nodes)
	for _, c := range nodes {
		n += countNodes(c.Children)
	}
	return n
}
