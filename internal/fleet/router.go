package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin/internal/obs"
)

// Config tunes the router. Zero values select sensible defaults.
type Config struct {
	// VNodes is the number of ring points per shard; default 64.
	VNodes int
	// Replicas is how many shards hold each dataset; default 2 (capped
	// at the fleet size). The primary serves joins; the others make a
	// shard death survivable without data loss.
	Replicas int
	// HeartbeatInterval is the /healthz probe period; default 500ms.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the tolerated consecutive probe failures
	// before a shard is declared dead; default 5. Mirrors the cluster
	// coordinator's worker-liveness policy.
	HeartbeatMisses int
	// MaxRetries bounds per-request attempts across shard failures;
	// default 3.
	MaxRetries int
	// TenantQuota is the default per-tenant admission budget; the zero
	// value disables tenant admission for tenants without an override.
	TenantQuota Quota
	// TenantOverrides names per-tenant budgets.
	TenantOverrides map[string]Quota
	// WarmJoins caps how many recent join shapes are replayed against a
	// dataset's new owner after a migration, warming its plan cache;
	// default 4.
	WarmJoins int
	// MaxUploadBytes bounds dataset upload bodies; default 64 MiB.
	MaxUploadBytes int64
	// TraceRing bounds how many routed-join traces the router retains
	// for GET /v1/joins/{id}/trace; default obs.DefaultRingSize (64).
	TraceRing int
	// Client is the HTTP client for shard calls; a 30s-timeout default
	// is used when nil.
	Client *http.Client
	// Log receives router events; slog.Default() when nil.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 5
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.WarmJoins <= 0 {
		c.WarmJoins = 4
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// shard is one sjoind the router fans out to.
type shard struct {
	id  string
	url string // base URL, no trailing slash

	alive  atomic.Bool
	misses atomic.Int32
}

// catEntry is the router's record of one placed dataset.
type catEntry struct {
	Tenant string
	Name   string
	Points int
	Ver    int64 // router-assigned version, bumped per PUT
	// Holders are shard ids currently known to hold a copy.
	Holders map[string]bool
	// Info is the shard's DatasetInfo response with the name mapped
	// back to the client-visible one; served by the router's list.
	Info map[string]any
}

// warmJoin is one remembered join shape, replayed to warm the plan
// cache of a dataset's new owner after migration.
type warmJoin struct {
	tenant string
	wire   joinWire
}

// Router is the fleet front door: one logical sjoind over N shards.
type Router struct {
	cfg     Config
	quotas  *Quotas
	Metrics *Metrics
	log     *slog.Logger

	// mu guards the ring. Request handlers hold it for reading across
	// the whole proxy call, so a ring swap (which takes the write lock)
	// naturally quiesces: it waits for in-flight requests resolved
	// against the old ring and no request ever observes a half-migrated
	// placement.
	mu   sync.RWMutex
	ring *Ring

	// catMu guards the shard set, catalog, mirrors and warm history
	// (short holds only).
	catMu   sync.Mutex
	shards  map[string]*shard
	catalog map[string]*catEntry // Key(tenant, name) -> entry
	mirrors map[string]string    // shardID+"\xff"+datasetKey -> mirror name on that shard
	recent  map[string][]warmJoin

	traces *obs.Ring[routerTrace]

	hbStop chan struct{}
	hbDone chan struct{}
}

// NewRouter builds a router over the given shards (id -> base URL) and
// starts its heartbeat monitor. Close stops the monitor.
func NewRouter(cfg Config, shardURLs map[string]string) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:     cfg,
		quotas:  NewQuotas(cfg.TenantQuota, cfg.TenantOverrides),
		Metrics: NewMetrics(),
		log:     cfg.Log,
		ring:    NewRing(cfg.VNodes),
		shards:  map[string]*shard{},
		catalog: map[string]*catEntry{},
		mirrors: map[string]string{},
		recent:  map[string][]warmJoin{},
		traces:  obs.NewRing[routerTrace](cfg.TraceRing),
		hbStop:  make(chan struct{}),
		hbDone:  make(chan struct{}),
	}
	for id, url := range shardURLs {
		sh := &shard{id: id, url: strings.TrimRight(url, "/")}
		sh.alive.Store(true)
		rt.shards[id] = sh
		rt.ring = rt.ring.With(id)
	}
	go rt.heartbeatLoop()
	return rt
}

// Close stops the heartbeat monitor.
func (rt *Router) Close() {
	close(rt.hbStop)
	<-rt.hbDone
}

// shardByID returns a registered shard.
func (rt *Router) shardByID(id string) *shard {
	rt.catMu.Lock()
	defer rt.catMu.Unlock()
	return rt.shards[id]
}

// liveOwners resolves the shards that should hold key right now: the
// first cfg.Replicas live members in ring order. Callers hold rt.mu
// for reading.
func (rt *Router) liveOwners(key string) []*shard {
	return rt.liveOwnersIn(rt.ring, key)
}

// liveOwnersIn is liveOwners against an explicit ring (a candidate ring
// during migration planning, or a snapshot taken without holding rt.mu).
func (rt *Router) liveOwnersIn(ring *Ring, key string) []*shard {
	ids := ring.Owners(key, ring.Len())
	rt.catMu.Lock()
	defer rt.catMu.Unlock()
	out := make([]*shard, 0, rt.cfg.Replicas)
	for _, id := range ids {
		sh := rt.shards[id]
		if sh != nil && sh.alive.Load() {
			out = append(out, sh)
			if len(out) == rt.cfg.Replicas {
				break
			}
		}
	}
	return out
}

// serveTarget picks the shard a read of key should go to: the first
// live owner that holds a copy, falling back to any live holder (a
// placement mid-repair). Callers hold rt.mu for reading.
func (rt *Router) serveTarget(key string) *shard {
	owners := rt.liveOwners(key)
	rt.catMu.Lock()
	ent := rt.catalog[key]
	var holders map[string]bool
	if ent != nil {
		holders = ent.Holders
	}
	all := make([]*shard, 0, len(rt.shards))
	for _, sh := range rt.shards {
		all = append(all, sh)
	}
	rt.catMu.Unlock()
	if holders == nil {
		if len(owners) > 0 {
			return owners[0]
		}
		return nil
	}
	for _, sh := range owners {
		if holders[sh.id] {
			return sh
		}
	}
	for _, sh := range all {
		if holders[sh.id] && sh.alive.Load() {
			return sh
		}
	}
	return nil
}

// markDead flips a shard to dead after a transport failure and kicks
// off replica repair in the background.
func (rt *Router) markDead(sh *shard, cause error) {
	if !sh.alive.CompareAndSwap(true, false) {
		return
	}
	rt.log.Warn("fleet: shard declared dead", "shard", sh.id, "cause", cause)
	rt.Metrics.ShardDeaths.Inc(sh.id)
	go rt.repair()
}

// heartbeatLoop probes every shard's /healthz on the configured
// interval — the same beacon/misses liveness policy the cluster
// coordinator applies to workers.
func (rt *Router) heartbeatLoop() {
	defer close(rt.hbDone)
	tick := time.NewTicker(rt.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.hbStop:
			return
		case <-tick.C:
		}
		rt.catMu.Lock()
		shards := make([]*shard, 0, len(rt.shards))
		for _, sh := range rt.shards {
			shards = append(shards, sh)
		}
		rt.catMu.Unlock()
		var wg sync.WaitGroup
		for _, sh := range shards {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HeartbeatInterval)
				defer cancel()
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, sh.url+"/healthz", nil)
				resp, err := rt.cfg.Client.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				// A draining shard answers 503: it is alive but leaving;
				// treat it like a miss so traffic shifts to replicas.
				if err != nil || resp.StatusCode != http.StatusOK {
					if n := sh.misses.Add(1); int(n) >= rt.cfg.HeartbeatMisses {
						rt.markDead(sh, fmt.Errorf("missed %d heartbeats", n))
					}
					return
				}
				sh.misses.Store(0)
				if sh.alive.CompareAndSwap(false, true) {
					rt.log.Info("fleet: shard back alive", "shard", sh.id)
				}
			}(sh)
		}
		wg.Wait()
	}
}

// ---- tenant and name mapping ----

// ValidTenant reports whether a tenant id is routable: up to 64 bytes
// of [A-Za-z0-9._:-], or empty (the anonymous tenant). The restriction
// keeps placement keys and shard-side dataset names unambiguous.
func ValidTenant(t string) bool {
	if len(t) > 64 {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == ':' || c == '-':
		default:
			return false
		}
	}
	return true
}

// shardDatasetName maps a client-visible dataset to its shard-side
// name. Tenants are folded into the name so shards need no tenant
// awareness of their own.
func shardDatasetName(tenant, name string) string {
	if tenant == "" {
		return name
	}
	return "t~" + tenant + "~" + name
}

// validDatasetName rejects names that would collide with router-managed
// namespaces ("~…" mirrors, "t~…" tenant folding).
func validDatasetName(name string) error {
	if name == "" {
		return fmt.Errorf("fleet: dataset name must not be empty")
	}
	if strings.HasPrefix(name, "~") || strings.HasPrefix(name, "t~") {
		return fmt.Errorf("fleet: dataset name %q uses a reserved prefix", name)
	}
	if strings.ContainsRune(name, '\x00') {
		return fmt.Errorf("fleet: dataset name must not contain NUL")
	}
	return nil
}

func tenantOf(r *http.Request) string { return r.Header.Get("X-Tenant") }

// ---- HTTP plumbing ----

type errorWire struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorWire{Error: err.Error()})
	return code
}

func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
	return code
}

// shardGet GETs path on sh and returns the body on 200.
func (rt *Router) shardGet(ctx context.Context, sh *shard, path string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.url+path, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, nil, &transportError{sh: sh, err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, &transportError{sh: sh, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("fleet: shard %s: GET %s: status %d: %s", sh.id, path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, resp.Header, nil
}

// shardPost POSTs body to path on sh and returns the response body and
// status.
func (rt *Router) shardPost(ctx context.Context, sh *shard, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, &transportError{sh: sh, err: err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, &transportError{sh: sh, err: err}
	}
	return resp.StatusCode, out, nil
}

// transportError marks a shard-level connectivity failure — the retry
// trigger, as opposed to an application-level error the shard returned.
type transportError struct {
	sh  *shard
	err error
}

func (e *transportError) Error() string {
	return fmt.Sprintf("fleet: shard %s unreachable: %v", e.sh.id, e.err)
}

func (e *transportError) Unwrap() error { return e.err }

// RingInfo describes the fleet for GET /v1/fleet/ring.
type RingInfo struct {
	VNodes   int             `json:"vnodes"`
	Replicas int             `json:"replicas"`
	Shards   []RingShardInfo `json:"shards"`
	Datasets []RingPlacement `json:"datasets"`
}

// RingShardInfo is one shard's row in RingInfo.
type RingShardInfo struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
}

// RingPlacement is one dataset's placement row in RingInfo.
type RingPlacement struct {
	Tenant  string   `json:"tenant,omitempty"`
	Name    string   `json:"name"`
	Points  int      `json:"points"`
	Owners  []string `json:"owners"`
	Holders []string `json:"holders"`
}

// Info snapshots the fleet state.
func (rt *Router) Info() RingInfo {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	info := RingInfo{VNodes: rt.cfg.VNodes, Replicas: rt.cfg.Replicas}
	rt.catMu.Lock()
	ids := make([]string, 0, len(rt.shards))
	for id := range rt.shards {
		ids = append(ids, id)
	}
	keys := make([]string, 0, len(rt.catalog))
	for k := range rt.catalog {
		keys = append(keys, k)
	}
	rt.catMu.Unlock()
	sortStrings(ids)
	sortStrings(keys)
	for _, id := range ids {
		sh := rt.shardByID(id)
		info.Shards = append(info.Shards, RingShardInfo{ID: sh.id, URL: sh.url, Alive: sh.alive.Load()})
	}
	for _, k := range keys {
		rt.catMu.Lock()
		ent := rt.catalog[k]
		var holders []string
		if ent != nil {
			for id := range ent.Holders {
				holders = append(holders, id)
			}
		}
		rt.catMu.Unlock()
		if ent == nil {
			continue
		}
		sortStrings(holders)
		var owners []string
		for _, sh := range rt.liveOwners(k) {
			owners = append(owners, sh.id)
		}
		info.Datasets = append(info.Datasets, RingPlacement{
			Tenant: ent.Tenant, Name: ent.Name, Points: ent.Points,
			Owners: owners, Holders: holders,
		})
	}
	return info
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Owners exposes the live placement of (tenant, name) — used by tests
// and the ring endpoint.
func (rt *Router) Owners(tenant, name string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var out []string
	for _, sh := range rt.liveOwners(Key(tenant, name)) {
		out = append(out, sh.id)
	}
	return out
}

// Handler returns the router's HTTP API — the sjoind surface plus the
// fleet admin endpoints:
//
//	POST   /v1/datasets?name=N        place + replicate a dataset
//	GET    /v1/datasets               this tenant's datasets
//	DELETE /v1/datasets/{name}        drop a dataset fleet-wide
//	POST   /v1/join                   route a join
//	POST   /v1/join/count             count-only fast path
//	GET    /v1/joins/{id}/trace       router-stitched span tree
//	GET    /v1/fleet/ring             shard + placement state
//	GET    /v1/fleet/overview         per-shard + aggregated telemetry
//	POST   /v1/fleet/shards           {"id":..,"url":..} join a shard
//	DELETE /v1/fleet/shards/{id}      graceful shard leave
//	GET    /healthz                   200 while >= 1 shard lives
//	GET    /metrics                   router metrics
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", rt.instrument("datasets_put", rt.handlePutDataset))
	mux.HandleFunc("GET /v1/datasets", rt.instrument("datasets_list", rt.handleListDatasets))
	mux.HandleFunc("DELETE /v1/datasets/{name}", rt.instrument("datasets_delete", rt.handleDeleteDataset))
	mux.HandleFunc("POST /v1/join", rt.instrument("join", func(w http.ResponseWriter, r *http.Request) (int, error) {
		return rt.handleJoin(w, r, true)
	}))
	mux.HandleFunc("POST /v1/join/count", rt.instrument("join_count", func(w http.ResponseWriter, r *http.Request) (int, error) {
		return rt.handleJoin(w, r, false)
	}))
	mux.HandleFunc("GET /v1/joins/{id}/trace", rt.instrument("join_trace", rt.handleJoinTrace))
	mux.HandleFunc("GET /v1/fleet/ring", rt.instrument("ring", func(w http.ResponseWriter, r *http.Request) (int, error) {
		return writeJSON(w, http.StatusOK, rt.Info()), nil
	}))
	mux.HandleFunc("GET /v1/fleet/overview", rt.instrument("overview", rt.handleOverview))
	mux.HandleFunc("POST /v1/fleet/shards", rt.instrument("shard_join", rt.handleAddShard))
	mux.HandleFunc("DELETE /v1/fleet/shards/{id}", rt.instrument("shard_leave", rt.handleRemoveShard))
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.Handle("GET /metrics", rt.Metrics)
	return mux
}

func (rt *Router) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) (int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		code, err := h(w, r)
		if err != nil {
			code = writeError(w, code, err)
		}
		rt.Metrics.Requests.Inc(endpoint, strconv.Itoa(code))
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.catMu.Lock()
	live := 0
	for _, sh := range rt.shards {
		if sh.alive.Load() {
			live++
		}
	}
	rt.catMu.Unlock()
	if live == 0 {
		http.Error(w, "no live shards", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handlePutDataset places a dataset: the body (or server-side generate
// query) is shipped to every owner shard, the catalog is updated, and
// stale cross-shard mirrors of the previous version are dropped.
func (rt *Router) handlePutDataset(w http.ResponseWriter, r *http.Request) (int, error) {
	tenant := tenantOf(r)
	if !ValidTenant(tenant) {
		return http.StatusBadRequest, fmt.Errorf("fleet: invalid tenant id")
	}
	name := r.URL.Query().Get("name")
	if err := validDatasetName(name); err != nil {
		return http.StatusBadRequest, err
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxUploadBytes))
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("fleet: reading upload: %w", err)
	}
	key := Key(tenant, name)
	sname := shardDatasetName(tenant, name)

	rt.mu.RLock()
	defer rt.mu.RUnlock()
	owners := rt.liveOwners(key)
	if len(owners) == 0 {
		return http.StatusServiceUnavailable, fmt.Errorf("fleet: no live shards")
	}
	q := r.URL.Query()
	q.Set("name", sname)
	path := "/v1/datasets?" + q.Encode()

	var primary map[string]any
	holders := map[string]bool{}
	for i, sh := range owners {
		code, resp, err := rt.shardPost(r.Context(), sh, path, r.Header.Get("Content-Type"), body)
		if err != nil {
			var te *transportError
			if isTransport(err, &te) {
				rt.markDead(sh, err)
			}
			if i == 0 {
				return http.StatusBadGateway, fmt.Errorf("fleet: placing %q on %s: %w", name, sh.id, err)
			}
			rt.log.Warn("fleet: replica placement failed", "dataset", name, "shard", sh.id, "err", err)
			continue
		}
		if code != http.StatusCreated {
			if i == 0 {
				var ew errorWire
				json.Unmarshal(resp, &ew)
				return code, fmt.Errorf("fleet: shard %s rejected dataset: %s", sh.id, ew.Error)
			}
			continue
		}
		holders[sh.id] = true
		if i == 0 {
			if err := json.Unmarshal(resp, &primary); err != nil {
				return http.StatusBadGateway, fmt.Errorf("fleet: bad shard response: %w", err)
			}
		}
		rt.Metrics.Proxied.Inc(sh.id)
	}
	points, _ := primary["points"].(float64)
	primary["name"] = name

	rt.catMu.Lock()
	ent := rt.catalog[key]
	var ver int64 = 1
	if ent != nil {
		ver = ent.Ver + 1
	}
	rt.catalog[key] = &catEntry{
		Tenant: tenant, Name: name, Points: int(points), Ver: ver,
		Holders: holders, Info: primary,
	}
	stale := rt.staleMirrorsLocked(key)
	rt.catMu.Unlock()
	rt.dropMirrors(stale)
	return writeJSON(w, http.StatusCreated, primary), nil
}

// staleMirrorsLocked collects and forgets every mirror of key; callers
// hold catMu and delete the returned shard-side names afterwards.
func (rt *Router) staleMirrorsLocked(key string) map[*shard]string {
	out := map[*shard]string{}
	for mk, mname := range rt.mirrors {
		id, k, ok := strings.Cut(mk, "\xff")
		if !ok || k != key {
			continue
		}
		if sh := rt.shards[id]; sh != nil {
			out[sh] = mname
		}
		delete(rt.mirrors, mk)
	}
	return out
}

// dropMirrors best-effort deletes mirror datasets from their shards.
func (rt *Router) dropMirrors(stale map[*shard]string) {
	for sh, mname := range stale {
		if !sh.alive.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodDelete, sh.url+"/v1/datasets/"+mname, nil)
		if resp, err := rt.cfg.Client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
	}
}

func isTransport(err error, te **transportError) bool {
	for err != nil {
		if e, ok := err.(*transportError); ok {
			*te = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func (rt *Router) handleListDatasets(w http.ResponseWriter, r *http.Request) (int, error) {
	tenant := tenantOf(r)
	if !ValidTenant(tenant) {
		return http.StatusBadRequest, fmt.Errorf("fleet: invalid tenant id")
	}
	rt.catMu.Lock()
	var names []string
	byName := map[string]map[string]any{}
	for _, ent := range rt.catalog {
		if ent.Tenant != tenant {
			continue
		}
		names = append(names, ent.Name)
		byName[ent.Name] = ent.Info
	}
	rt.catMu.Unlock()
	sortStrings(names)
	out := make([]map[string]any, 0, len(names))
	for _, n := range names {
		out = append(out, byName[n])
	}
	return writeJSON(w, http.StatusOK, out), nil
}

func (rt *Router) handleDeleteDataset(w http.ResponseWriter, r *http.Request) (int, error) {
	tenant := tenantOf(r)
	if !ValidTenant(tenant) {
		return http.StatusBadRequest, fmt.Errorf("fleet: invalid tenant id")
	}
	name := r.PathValue("name")
	key := Key(tenant, name)
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	rt.catMu.Lock()
	ent := rt.catalog[key]
	if ent == nil {
		rt.catMu.Unlock()
		return http.StatusNotFound, fmt.Errorf("fleet: unknown dataset %q", name)
	}
	delete(rt.catalog, key)
	delete(rt.recent, key)
	var targets []*shard
	for id := range ent.Holders {
		if sh := rt.shards[id]; sh != nil && sh.alive.Load() {
			targets = append(targets, sh)
		}
	}
	stale := rt.staleMirrorsLocked(key)
	rt.catMu.Unlock()

	sname := shardDatasetName(tenant, name)
	for _, sh := range targets {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodDelete, sh.url+"/v1/datasets/"+sname, nil)
		if resp, err := rt.cfg.Client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	rt.dropMirrors(stale)
	return writeJSON(w, http.StatusOK, map[string]string{"deleted": name}), nil
}
