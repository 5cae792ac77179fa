package service

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"spatialjoin/internal/dpe"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/textio"
	"spatialjoin/internal/twolayer"
)

// The geo layer serves non-point joins: geometry datasets (rectangles,
// polylines, simple polygons) uploaded in the WKT-flavoured text format
// and joined with the two-layer engine through the service's one join
// pipeline. Geo datasets live in memory only — they are not mirrored
// into the durable store. A geo join prepares a fresh two-layer plan per
// request and counts as a plan-cache miss: the response reports the
// kernel's filter and refine counters (candidates, emitted, fallback
// tiles), and those accumulate per plan, so a shared cached plan would
// report every earlier request's work as this one's.

// geoDataset is one registered geometry set.
type geoDataset struct {
	Name    string
	Rev     int64
	Objects []extgeom.Object
	Bounds  geom.Rect
}

// GeoDatasetInfo describes a registered geometry dataset to clients.
type GeoDatasetInfo struct {
	Name    string  `json:"name"`
	Objects int     `json:"objects"`
	Rev     int64   `json:"rev"`
	MinX    float64 `json:"min_x"`
	MinY    float64 `json:"min_y"`
	MaxX    float64 `json:"max_x"`
	MaxY    float64 `json:"max_y"`
}

// geoRegistry is the in-memory geometry dataset store.
type geoRegistry struct {
	mu      sync.RWMutex
	m       map[string]*geoDataset
	nextRev int64
}

func (r *geoRegistry) put(name string, objs []extgeom.Object) (int64, error) {
	if name == "" {
		return 0, fmt.Errorf("service: dataset name must not be empty")
	}
	if len(objs) == 0 {
		return 0, fmt.Errorf("service: geo dataset %q has no objects", name)
	}
	b := geom.EmptyRect()
	for i := range objs {
		b = b.Union(objs[i].Bounds())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextRev++
	r.m[name] = &geoDataset{Name: name, Rev: r.nextRev, Objects: objs, Bounds: b}
	return r.nextRev, nil
}

func (r *geoRegistry) get(name string) (*geoDataset, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.m[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return d, nil
}

func (r *geoRegistry) delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.m[name]
	delete(r.m, name)
	return ok
}

func (r *geoRegistry) list() []GeoDatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]GeoDatasetInfo, 0, len(r.m))
	for _, d := range r.m {
		out = append(out, GeoDatasetInfo{
			Name: d.Name, Objects: len(d.Objects), Rev: d.Rev,
			MinX: d.Bounds.MinX, MinY: d.Bounds.MinY,
			MaxX: d.Bounds.MaxX, MaxY: d.Bounds.MaxY,
		})
	}
	slices.SortFunc(out, func(a, b GeoDatasetInfo) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// GeoJoinRequest is one non-point join against registered geo datasets.
type GeoJoinRequest struct {
	R, S      string // geo dataset names (both required)
	Tenant    string
	Predicate string  // "intersects", "contains", "within"
	Eps       float64 // WithinDistance threshold

	Tiles      int // force a Tiles×Tiles grid; 0 lets the cost model pick
	Workers    int
	Partitions int

	Collect bool
	Limit   int

	Timeout time.Duration
}

// GeoJoinResponse reports one non-point join execution.
type GeoJoinResponse struct {
	Predicate string `json:"predicate"`
	Results   int64  `json:"results"`

	TilesX int `json:"tiles_x"`
	TilesY int `json:"tiles_y"`

	// Candidates / Emitted / FallbackTiles come from the kernel's filter
	// and refine counters; they stay zero on cluster engines, where the
	// kernels run inside the worker processes.
	Candidates    int64 `json:"candidates"`
	Emitted       int64 `json:"emitted"`
	FallbackTiles int64 `json:"fallback_tiles"`

	ReplicatedR int64 `json:"replicated_r"`
	ReplicatedS int64 `json:"replicated_s"`
	// ReplicationBytesByClass breaks the shipped replica payload bytes
	// down by tile class: "a" is the native copies, "b"/"c"/"d" the
	// extent-replication overhead of the two-layer scheme.
	ReplicationBytesByClass map[string]int64 `json:"replication_bytes_by_class"`

	BuildMillis float64 `json:"build_ms"`
	ProbeMillis float64 `json:"probe_ms"`

	Pairs     [][2]int64 `json:"pairs,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`

	JoinID int64 `json:"join_id"`
}

// GeoJoin executes one non-point join through the shared pipeline.
func (s *Service) GeoJoin(ctx context.Context, req GeoJoinRequest) (*GeoJoinResponse, error) {
	q := query{
		r: req.R, s: req.S, tenant: req.Tenant, eps: req.Eps, algorithm: "twolayer",
		collect: req.Collect, limit: req.Limit, timeout: req.Timeout,
	}
	return run(ctx, s, q, s.geoEngine(req))
}

// geoEngine prepares and executes a two-layer plan per request.
func (s *Service) geoEngine(req GeoJoinRequest) engine[GeoJoinResponse] {
	var pred extgeom.Predicate
	var rd, sd *geoDataset
	var plan *twolayer.Plan
	var res *dpe.Result
	return engine[GeoJoinResponse]{
		validate: func() (err error) {
			if pred, err = extgeom.ParsePredicate(req.Predicate); err != nil {
				return fmt.Errorf("service: %w", err)
			}
			if rd, err = s.geo.get(req.R); err != nil {
				return err
			}
			sd, err = s.geo.get(req.S)
			return err
		},
		prepare: func(j *joinRun) (_ bool, _ func(), err error) {
			j.root.SetStr("predicate", pred.String())
			plan, err = twolayer.Prepare(twolayer.Config{
				R: rd.Objects, S: sd.Objects,
				Pred: pred, Eps: req.Eps,
				Tiles: req.Tiles, Workers: req.Workers, Partitions: req.Partitions,
				Collect:     req.Collect,
				Engine:      s.cfg.Engine,
				Tracer:      j.tr,
				TraceParent: j.root.SpanID(),
			})
			return false, func() {}, err
		},
		execute: func(ctx context.Context, j *joinRun) (err error) {
			if res, err = plan.Execute(ctx, twolayer.ExecOptions{Collect: req.Collect}); err != nil {
				return err
			}
			j.label, j.results, j.found, j.cluster = "twolayer-"+pred.String(), res.Results, res.Pairs, res.Cluster
			return nil
		},
		respond: func(j *joinRun) *GeoJoinResponse {
			st := &plan.Kernel().Stats
			return &GeoJoinResponse{
				Predicate:               pred.String(),
				Results:                 j.results,
				TilesX:                  plan.Grid.NX,
				TilesY:                  plan.Grid.NY,
				Candidates:              st.Candidates.Load(),
				Emitted:                 st.Emitted.Load(),
				FallbackTiles:           st.FallbackTiles.Load(),
				ReplicatedR:             res.ReplicatedR,
				ReplicatedS:             res.ReplicatedS,
				ReplicationBytesByClass: plan.ClassBytes(),
				BuildMillis:             j.build.Seconds() * 1e3,
				ProbeMillis:             j.probe.Seconds() * 1e3,
				Pairs:                   j.pairs,
				Truncated:               j.truncated,
				JoinID:                  j.id,
			}
		},
	}
}

// geoJoinRequestWire is the JSON body of POST /v1/geojoin.
type geoJoinRequestWire struct {
	R             string  `json:"r"`
	S             string  `json:"s"`
	Predicate     string  `json:"predicate"`
	Eps           float64 `json:"eps,omitempty"`
	Tiles         int     `json:"tiles,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	Partitions    int     `json:"partitions,omitempty"`
	Collect       bool    `json:"collect,omitempty"`
	Limit         int     `json:"limit,omitempty"`
	TimeoutMillis int64   `json:"timeout_ms,omitempty"`
}

func (s *Service) handlePutGeoDataset(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.URL.Query().Get("name")
	if name == "" {
		return http.StatusBadRequest, fmt.Errorf("service: query parameter 'name' is required")
	}
	objs, err := textio.ReadGeoms(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes), 0)
	if err != nil {
		return http.StatusBadRequest, err
	}
	rev, err := s.geo.put(name, objs)
	if err != nil {
		return http.StatusBadRequest, err
	}
	d, _ := s.geo.get(name)
	return writeJSON(w, http.StatusCreated, GeoDatasetInfo{
		Name: name, Objects: len(objs), Rev: rev,
		MinX: d.Bounds.MinX, MinY: d.Bounds.MinY,
		MaxX: d.Bounds.MaxX, MaxY: d.Bounds.MaxY,
	})
}

func (s *Service) handleListGeoDatasets(w http.ResponseWriter, r *http.Request) (int, error) {
	return writeJSON(w, http.StatusOK, s.geo.list())
}

func (s *Service) handleDeleteGeoDataset(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.PathValue("name")
	if !s.geo.delete(name) {
		return http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// geoJoinWire runs a decoded POST /v1/geojoin body.
func (s *Service) geoJoinWire(ctx context.Context, tenant string, wire *geoJoinRequestWire, collect bool) (*GeoJoinResponse, error) {
	return s.GeoJoin(ctx, GeoJoinRequest{
		R: wire.R, S: wire.S,
		Tenant:    tenant,
		Predicate: wire.Predicate, Eps: wire.Eps,
		Tiles: wire.Tiles, Workers: wire.Workers, Partitions: wire.Partitions,
		Collect: wire.Collect && collect, Limit: wire.Limit,
		Timeout: time.Duration(wire.TimeoutMillis) * time.Millisecond,
	})
}

// registerGeoRoutes adds the geo layer's endpoints to the service mux.
func (s *Service) registerGeoRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/geodatasets", s.instrument("geodatasets_put", s.handlePutGeoDataset))
	mux.HandleFunc("GET /v1/geodatasets", s.instrument("geodatasets_list", s.handleListGeoDatasets))
	mux.HandleFunc("DELETE /v1/geodatasets/{name}", s.instrument("geodatasets_delete", s.handleDeleteGeoDataset))
	mux.HandleFunc("POST /v1/geojoin", s.instrument("geojoin", joinHandler(true, s.geoJoinWire)))
	mux.HandleFunc("POST /v1/geojoin/count", s.instrument("geojoin_count", joinHandler(false, s.geoJoinWire)))
}
