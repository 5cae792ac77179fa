package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"spatialjoin"
	"spatialjoin/internal/dstore"
	"spatialjoin/internal/textio"
)

// joinRequestWire is the JSON body of POST /v1/join.
type joinRequestWire struct {
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

type errorWire struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/datasets?name=N       upload a dataset ("x y [payload]" lines)
//	POST   /v1/datasets?name=N&generate=K&n=M&seed=S   generate one instead
//	GET    /v1/datasets              list datasets
//	DELETE /v1/datasets/{name}       drop a dataset (and its cached plans)
//	POST   /v1/join                  execute a join (JSON body)
//	POST   /v1/join/count            same, but never materialises pairs
//	POST   /v1/geodatasets?name=N    upload a geometry dataset (WKT-ish lines)
//	GET    /v1/geodatasets           list geometry datasets
//	DELETE /v1/geodatasets/{name}    drop a geometry dataset
//	POST   /v1/geojoin               execute a non-point join (JSON body)
//	POST   /v1/geojoin/count         same, but never materialises pairs
//	GET    /v1/joins/{id}/trace      span tree + skew of a recent join
//	                                 (?format=chrome for trace-event JSON)
//	GET    /v1/admin/handoff/{name}  export a dataset as a columnar blob
//	POST   /v1/admin/handoff?name=N  import a columnar blob as a dataset
//	POST   /v1/admin/skew            import planner skew observations
//	POST   /v1/stream                create a streaming join (JSON body)
//	GET    /v1/stream                list streams
//	DELETE /v1/stream/{name}         tear a stream down
//	POST   /v1/stream/ingest?name=N  apply NDJSON mutations
//	GET    /v1/stream/subscribe?name=N  chunked NDJSON delta feed
//	POST   /v1/admin/checkpoint      write a durable checkpoint now
//	GET    /v1/planner/history       persisted per-(R,S,eps) skew reports
//	                                 (?window=5m for rollup-backed series)
//	GET    /v1/telemetry/series      rollup time series (?name=&key=&res=&window=)
//	GET    /v1/telemetry/slo         per-tenant SLO status (p50/p99, burn rate)
//	GET    /v1/telemetry/events      anomaly event log (?limit=)
//	GET    /healthz                  200 ok / 503 draining
//	GET    /metrics                  Prometheus text format
//	GET    /debug/vars               JSON mirror of /metrics
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.registerStreamRoutes(mux)
	s.registerGeoRoutes(mux)
	mux.HandleFunc("POST /v1/datasets", s.instrument("datasets_put", s.handlePutDataset))
	mux.HandleFunc("GET /v1/datasets", s.instrument("datasets_list", s.handleListDatasets))
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.instrument("datasets_delete", s.handleDeleteDataset))
	mux.HandleFunc("POST /v1/join", s.instrument("join", joinHandler(true, s.joinWire)))
	mux.HandleFunc("POST /v1/join/count", s.instrument("join_count", joinHandler(false, s.joinWire)))
	mux.HandleFunc("GET /v1/joins/{id}/trace", s.instrument("join_trace", s.handleJoinTrace))
	mux.HandleFunc("GET /v1/admin/handoff/{name}", s.instrument("handoff_export", s.handleHandoffExport))
	mux.HandleFunc("POST /v1/admin/handoff", s.instrument("handoff_import", s.handleHandoffImport))
	mux.HandleFunc("POST /v1/admin/skew", s.instrument("skew_import", s.handleSkewImport))
	mux.HandleFunc("POST /v1/admin/checkpoint", s.instrument("admin_checkpoint", s.handleCheckpoint))
	mux.HandleFunc("GET /v1/planner/history", s.instrument("planner_history", s.handlePlannerHistory))
	mux.HandleFunc("GET /v1/telemetry/series", s.instrument("telemetry_series", s.handleTelemetrySeries))
	mux.HandleFunc("GET /v1/telemetry/slo", s.instrument("telemetry_slo", s.handleTelemetrySLO))
	mux.HandleFunc("GET /v1/telemetry/events", s.instrument("telemetry_events", s.handleTelemetryEvents))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.Metrics)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	return mux
}

// instrument wraps a handler with request counting by endpoint and code.
func (s *Service) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) (int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		code, err := h(w, r)
		if err != nil {
			writeError(w, code, err)
		}
		s.Metrics.Requests.Inc(endpoint, strconv.Itoa(code))
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		after := "1"
		var tqe *TenantQuotaError
		if errors.As(err, &tqe) {
			if secs := int(math.Ceil(tqe.RetryAfter.Seconds())); secs > 1 {
				after = strconv.Itoa(secs)
			}
		}
		w.Header().Set("Retry-After", after)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorWire{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) (int, error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
	return code, nil
}

func (s *Service) handlePutDataset(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.URL.Query().Get("name")
	if name == "" {
		return http.StatusBadRequest, fmt.Errorf("service: query parameter 'name' is required")
	}
	var ts []spatialjoin.Tuple
	if kind := r.URL.Query().Get("generate"); kind != "" {
		n, err := strconv.Atoi(r.URL.Query().Get("n"))
		if err != nil || n <= 0 || n > 10_000_000 {
			return http.StatusBadRequest, fmt.Errorf("service: generate requires 'n' in [1, 1e7]")
		}
		seed, _ := strconv.ParseInt(r.URL.Query().Get("seed"), 10, 64)
		switch kind {
		case "uniform":
			ts = spatialjoin.GenerateUniform(n, seed)
		case "gaussian":
			ts = spatialjoin.GenerateGaussian(n, seed)
		case "tiger":
			ts = spatialjoin.GenerateTigerLike(n, seed)
		case "osm":
			ts = spatialjoin.GenerateOSMLike(n, seed)
		default:
			return http.StatusBadRequest, fmt.Errorf("service: unknown generator %q (uniform, gaussian, tiger, osm)", kind)
		}
	} else {
		var err error
		ts, err = textio.Read(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes), 0)
		if err != nil {
			return http.StatusBadRequest, err
		}
		if len(ts) == 0 {
			return http.StatusBadRequest, fmt.Errorf("service: upload contained no points")
		}
	}
	rev, err := s.Registry.Put(name, ts)
	if err != nil {
		return http.StatusBadRequest, err
	}
	// A replaced dataset invalidates plans referencing the old revision;
	// drop them eagerly rather than waiting for LRU pressure.
	s.cache.Invalidate(name)
	b := boundsOf(ts)
	return writeJSON(w, http.StatusCreated, DatasetInfo{
		Name: name, Points: len(ts), Rev: rev,
		MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY,
	})
}

func (s *Service) handleListDatasets(w http.ResponseWriter, r *http.Request) (int, error) {
	return writeJSON(w, http.StatusOK, s.Registry.List())
}

func (s *Service) handleDeleteDataset(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.PathValue("name")
	if !s.Registry.Delete(name) {
		return http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	s.cache.Invalidate(name)
	return writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// joinWire runs a decoded POST /v1/join body. "disk" is not a planner
// algorithm: it selects the disk engine, which streams the join from
// grid-partitioned columnar files instead of in-memory plans.
func (s *Service) joinWire(ctx context.Context, tenant string, wire *joinRequestWire, collect bool) (*JoinResponse, error) {
	req := JoinRequest{
		R: wire.R, S: wire.S, Eps: wire.Eps,
		Tenant:  tenant,
		Workers: wire.Workers, Partitions: wire.Partitions,
		SampleFraction: wire.SampleFraction, Seed: wire.Seed,
		UseLPT: wire.UseLPT, GridRes: wire.GridRes,
		Collect: wire.Collect && collect, Limit: wire.Limit,
		Timeout: time.Duration(wire.TimeoutMillis) * time.Millisecond,
	}
	if strings.EqualFold(wire.Algorithm, "disk") {
		return s.DiskJoin(ctx, req)
	}
	var err error
	if req.Algorithm, err = spatialjoin.ParseAlgorithm(wire.Algorithm); err != nil {
		return nil, err
	}
	return s.Join(ctx, req)
}

func (s *Service) handleJoinTrace(w http.ResponseWriter, r *http.Request) (int, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("service: bad join id %q", r.PathValue("id"))
	}
	if r.URL.Query().Get("format") == "chrome" {
		var buf bytes.Buffer
		ok, err := s.TraceChrome(id, &buf)
		if !ok {
			return http.StatusNotFound, fmt.Errorf("service: no retained trace for join %d", id)
		}
		if err != nil {
			return http.StatusInternalServerError, err
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.Bytes())
		return http.StatusOK, nil
	}
	resp, ok := s.Trace(id)
	if !ok {
		return http.StatusNotFound, fmt.Errorf("service: no retained trace for join %d", id)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// handleCheckpoint triggers a durable checkpoint on demand: POST
// /v1/admin/checkpoint. 400 on an in-memory daemon (no -data-dir).
func (s *Service) handleCheckpoint(w http.ResponseWriter, r *http.Request) (int, error) {
	seq, err := s.Checkpoint()
	if err != nil {
		if errors.Is(err, ErrNotDurable) {
			return http.StatusBadRequest, err
		}
		return http.StatusInternalServerError, err
	}
	return writeJSON(w, http.StatusOK, map[string]uint64{"checkpoint_seq": seq})
}

// handlePlannerHistory serves the persisted skew observations: GET
// /v1/planner/history. 400 on an in-memory daemon. With ?window= (a
// duration, e.g. 5m) it instead serves the rollup-backed skew series
// for that window — the multi-resolution view the adaptive planner
// consumes — which works on in-memory daemons too.
func (s *Service) handlePlannerHistory(w http.ResponseWriter, r *http.Request) (int, error) {
	if win := r.URL.Query().Get("window"); win != "" {
		return s.handlePlannerWindow(w, r, win)
	}
	hist, err := s.SkewHistory()
	if err != nil {
		return http.StatusBadRequest, err
	}
	if hist == nil {
		hist = []dstore.SkewSample{}
	}
	return writeJSON(w, http.StatusOK, hist)
}

// joinErrorCode maps service errors to HTTP status codes.
func joinErrorCode(err error) int {
	var tqe *TenantQuotaError
	switch {
	case errors.Is(err, ErrOverloaded), errors.As(err, &tqe):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Metrics.Snapshot())
}
