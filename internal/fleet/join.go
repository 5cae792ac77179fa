package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"spatialjoin/internal/obs"
)

// joinWire mirrors the sjoind join request body — the router accepts
// exactly the single-shard API and rewrites dataset names on the way
// through.
type joinWire struct {
	R              string  `json:"r"`
	S              string  `json:"s"`
	Eps            float64 `json:"eps"`
	Algorithm      string  `json:"algorithm,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	Partitions     int     `json:"partitions,omitempty"`
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	UseLPT         bool    `json:"use_lpt,omitempty"`
	GridRes        float64 `json:"grid_res,omitempty"`
	Collect        bool    `json:"collect,omitempty"`
	Limit          int     `json:"limit,omitempty"`
	TimeoutMillis  int64   `json:"timeout_ms,omitempty"`
}

// joinResp mirrors the sjoind join response body.
type joinResp struct {
	Algorithm   string     `json:"algorithm"`
	Results     int64      `json:"results"`
	Checksum    string     `json:"checksum"`
	Selectivity float64    `json:"selectivity"`
	PlanCache   string     `json:"plan_cache"`
	ReplicatedR int64      `json:"replicated_r"`
	ReplicatedS int64      `json:"replicated_s"`
	BuildMillis float64    `json:"build_ms"`
	ProbeMillis float64    `json:"probe_ms"`
	Pairs       [][2]int64 `json:"pairs,omitempty"`
	Truncated   bool       `json:"truncated,omitempty"`
	JoinID      int64      `json:"join_id"`
}

// joinLeg records the one shard execution of a routed join, for trace
// stitching.
type joinLeg struct {
	shardID string
	joinID  int64
	span    uint64 // the SpanFleetProxy span the shard's tree grafts under
}

// shardError carries a shard's application-level rejection back to the
// client with its original status code.
type shardError struct {
	code int
	msg  string
}

func (e *shardError) Error() string { return e.msg }

// handleJoin is the router's POST /v1/join(+/count): per-tenant
// admission, then routing with whole-attempt retry across
// shard deaths.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request, allowCollect bool) (int, error) {
	tenant := tenantOf(r)
	if !ValidTenant(tenant) {
		return http.StatusBadRequest, fmt.Errorf("fleet: invalid tenant id")
	}
	if ok, retryAfter := rt.quotas.Allow(tenant); !ok {
		rt.Metrics.TenantRejected.Inc(tenant)
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		return http.StatusTooManyRequests, fmt.Errorf("fleet: tenant %q over quota, retry in %v", tenant, retryAfter.Round(time.Millisecond))
	}
	var wire joinWire
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return http.StatusBadRequest, fmt.Errorf("fleet: bad join request: %w", err)
	}
	if !allowCollect {
		wire.Collect = false
	}

	rt.mu.RLock()
	defer rt.mu.RUnlock()

	keyR, keyS := Key(tenant, wire.R), Key(tenant, wire.S)
	rt.catMu.Lock()
	entR, entS := rt.catalog[keyR], rt.catalog[keyS]
	rt.catMu.Unlock()
	if entR == nil {
		return http.StatusNotFound, fmt.Errorf("fleet: unknown dataset %q", wire.R)
	}
	if entS == nil {
		return http.StatusNotFound, fmt.Errorf("fleet: unknown dataset %q", wire.S)
	}
	rt.rememberJoin(keyR, keyS, tenant, wire)

	tr := obs.New()
	root := tr.Start(0, obs.SpanFleetJoin)
	root.SetStr("tenant", tenant).SetStr("r", wire.R).SetStr("s", wire.S)

	var (
		resp    *joinResp
		mode    string
		leg     joinLeg
		lastErr error
	)
	for attempt := 0; ; attempt++ {
		var err error
		resp, mode, leg, err = rt.routeJoin(r.Context(), tr, root, tenant, wire, entR, entS)
		if err == nil {
			break
		}
		var te *transportError
		if !isTransport(err, &te) {
			if se, ok := err.(*shardError); ok {
				return se.code, se
			}
			return http.StatusBadGateway, err
		}
		rt.markDead(te.sh, te.err)
		lastErr = err
		if attempt >= rt.cfg.MaxRetries {
			return http.StatusBadGateway, fmt.Errorf("fleet: join failed after %d attempts: %w", attempt+1, lastErr)
		}
		rt.Metrics.Retries.Inc(te.sh.id)
		rt.log.Warn("fleet: retrying join after shard failure", "shard", te.sh.id, "attempt", attempt+1)
	}
	root.SetStr("mode", mode)
	root.End()
	rt.Metrics.Joins.Inc(mode)
	resp.JoinID = rt.recordTrace(mode, tr, leg)
	return writeJSON(w, http.StatusOK, resp), nil
}

// rememberJoin keeps the join shape (count-only form) in the per-dataset
// warm history replayed after migrations.
func (rt *Router) rememberJoin(keyR, keyS, tenant string, wire joinWire) {
	warm := wire
	warm.Collect = false
	warm.Limit = 0
	rt.catMu.Lock()
	defer rt.catMu.Unlock()
	for _, key := range []string{keyR, keyS} {
		hist := rt.recent[key]
		dup := false
		for _, h := range hist {
			if h.tenant == tenant && h.wire == warm {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		hist = append(hist, warmJoin{tenant: tenant, wire: warm})
		if len(hist) > rt.cfg.WarmJoins {
			hist = hist[len(hist)-rt.cfg.WarmJoins:]
		}
		rt.recent[key] = hist
	}
}

// routeJoin makes one routing attempt against the current live shard
// view and runs the join on exactly one shard. A *transportError return
// means a shard died under it and the caller may retry; placement
// re-resolves to the replicas.
func (rt *Router) routeJoin(ctx context.Context, tr *obs.Tracer, root *obs.Span, tenant string, wire joinWire, entR, entS *catEntry) (*joinResp, string, joinLeg, error) {
	keyR, keyS := Key(tenant, wire.R), Key(tenant, wire.S)
	targetR, targetS := rt.serveTarget(keyR), rt.serveTarget(keyS)
	if targetR == nil || targetS == nil {
		return nil, "", joinLeg{}, fmt.Errorf("fleet: no live shard holds the datasets")
	}
	snameR := shardDatasetName(tenant, wire.R)
	snameS := shardDatasetName(tenant, wire.S)

	// Same shard: plain proxy.
	if targetR == targetS {
		sw := wire
		sw.R, sw.S = snameR, snameS
		resp, leg, err := rt.proxyJoin(ctx, tr, root, targetR, sw)
		return resp, "local", leg, err
	}

	// Cross-shard: stream the smaller dataset to the larger's shard as a
	// hidden mirror and join there.
	big, small := targetR, targetS
	smallKey, smallEnt, smallName := keyS, entS, snameS
	if entR.Points < entS.Points {
		big, small = targetS, targetR
		smallKey, smallEnt, smallName = keyR, entR, snameR
	}
	mirror, err := rt.ensureMirror(ctx, tr, root, small, big, smallKey, smallEnt, smallName)
	if err != nil {
		return nil, "", joinLeg{}, err
	}
	sw := wire
	if big == targetR {
		sw.R, sw.S = snameR, mirror
	} else {
		sw.R, sw.S = mirror, snameS
	}
	resp, leg, err := rt.proxyJoin(ctx, tr, root, big, sw)
	return resp, "streamed", leg, err
}

// proxyJoin runs one join on one shard under a SpanFleetProxy span.
func (rt *Router) proxyJoin(ctx context.Context, tr *obs.Tracer, root *obs.Span, sh *shard, wire joinWire) (*joinResp, joinLeg, error) {
	span := tr.Start(root.SpanID(), obs.SpanFleetProxy)
	span.SetWorker(sh.id).SetStr("shard", sh.id).SetStr("r", wire.R).SetStr("s", wire.S)
	defer span.End()
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, joinLeg{}, err
	}
	code, out, err := rt.shardPost(ctx, sh, "/v1/join", "application/json", body)
	if err != nil {
		return nil, joinLeg{}, err
	}
	rt.Metrics.Proxied.Inc(sh.id)
	if code != http.StatusOK {
		var ew errorWire
		json.Unmarshal(out, &ew)
		if ew.Error == "" {
			ew.Error = fmt.Sprintf("shard %s: status %d", sh.id, code)
		}
		return nil, joinLeg{}, &shardError{code: code, msg: ew.Error}
	}
	var resp joinResp
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, joinLeg{}, fmt.Errorf("fleet: bad join response from %s: %w", sh.id, err)
	}
	span.SetInt("results", resp.Results).SetInt("shard_join_id", resp.JoinID)
	return &resp, joinLeg{shardID: sh.id, joinID: resp.JoinID, span: uint64(span.SpanID())}, nil
}

// ensureMirror ships a dataset from shard src to shard dst under a
// hidden name, reusing a previous ship when the dataset version has not
// changed. Mirrors are invalidated when the dataset is re-uploaded and
// garbage-collected when it is deleted. The name keeps its "full" field
// so that mirrors already held by durable shards are still found.
func (rt *Router) ensureMirror(ctx context.Context, tr *obs.Tracer, root *obs.Span, src, dst *shard, key string, ent *catEntry, sname string) (string, error) {
	mk := dst.id + "\xff" + key
	mirror := fmt.Sprintf("~m~%d~full~%s", ent.Ver, sname)
	rt.catMu.Lock()
	cached := rt.mirrors[mk] == mirror && dst.alive.Load()
	rt.catMu.Unlock()
	if cached {
		return mirror, nil
	}

	span := tr.Start(root.SpanID(), obs.SpanFleetMirror)
	span.SetStr("dataset", ent.Name).SetStr("from", src.id).SetStr("to", dst.id)
	defer span.End()

	blob, _, err := rt.shardGet(ctx, src, "/v1/admin/handoff/"+sname)
	if err != nil {
		return "", err
	}
	code, out, err := rt.shardPost(ctx, dst, "/v1/admin/handoff?name="+url.QueryEscape(mirror), "application/octet-stream", blob)
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated {
		var ew errorWire
		json.Unmarshal(out, &ew)
		return "", fmt.Errorf("fleet: shard %s rejected mirror: %s", dst.id, ew.Error)
	}
	span.SetInt("bytes", int64(len(blob)))
	rt.Metrics.Migrations.Inc("mirror")
	rt.Metrics.HandoffBytes.Add(int64(len(blob)), "mirror")
	rt.catMu.Lock()
	rt.mirrors[mk] = mirror
	rt.catMu.Unlock()
	return mirror, nil
}
