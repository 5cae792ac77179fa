// Dataset handoff: the shard-side half of the fleet's data movement.
// A dataset travels between shards as one columnar (.col) blob in the
// dstore tuple format — IDs and payloads preserved bit for bit, so a
// join against a shipped copy produces the same pair ids and checksum
// as against the original. The router drives these endpoints for
// replica placement, ring-change migration, and cross-shard join
// mirroring, each shipping the whole dataset.

package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"spatialjoin"
	"spatialjoin/internal/dstore"
)

// handleHandoffExport serves GET /v1/admin/handoff/{name}: the dataset
// as a columnar blob. The x-range strip parameters an older router sent
// (xlo, xhi, inchi) answer 400: exporting the whole dataset for each
// strip would make such a router count pairs twice.
func (s *Service) handleHandoffExport(w http.ResponseWriter, r *http.Request) (int, error) {
	q := r.URL.Query()
	for _, p := range []string{"xlo", "xhi", "inchi"} {
		if q.Has(p) {
			return http.StatusBadRequest, fmt.Errorf("service: handoff export takes no %s parameter", p)
		}
	}
	d, err := s.Registry.Get(r.PathValue("name"))
	if err != nil {
		return http.StatusNotFound, err
	}
	w.Header().Set("X-Sjoin-Rev", strconv.FormatInt(d.Rev, 10))
	w.Header().Set("X-Sjoin-Gen", strconv.FormatInt(d.Gen, 10))
	w.Header().Set("X-Sjoin-Points", strconv.Itoa(len(d.Tuples)))
	blob, err := tuplesToBlob(d.Tuples)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
	return http.StatusOK, nil
}

// handleHandoffImport serves POST /v1/admin/handoff?name=N: register a
// columnar blob as a dataset, tuple ids preserved.
func (s *Service) handleHandoffImport(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.URL.Query().Get("name")
	if name == "" {
		return http.StatusBadRequest, fmt.Errorf("service: query parameter 'name' is required")
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("service: reading handoff blob: %w", err)
	}
	ts, err := dstore.DecodeTuples(blob)
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("service: decoding handoff blob: %w", err)
	}
	rev, err := s.Registry.Put(name, ts)
	if err != nil {
		return http.StatusBadRequest, err
	}
	s.cache.Invalidate(name)
	b := boundsOf(ts)
	return writeJSON(w, http.StatusCreated, DatasetInfo{
		Name: name, Points: len(ts), Rev: rev,
		MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY,
	})
}

// handleSkewImport serves POST /v1/admin/skew: append planner skew
// observations shipped from another shard into the durable history.
// 400 on an in-memory daemon, matching /v1/planner/history.
func (s *Service) handleSkewImport(w http.ResponseWriter, r *http.Request) (int, error) {
	if s.store == nil {
		return http.StatusBadRequest, ErrNotDurable
	}
	var samples []dstore.SkewSample
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&samples); err != nil {
		return http.StatusBadRequest, fmt.Errorf("service: bad skew payload: %w", err)
	}
	n := 0
	for _, sm := range samples {
		if sm.R == "" || sm.S == "" || len(sm.Report) == 0 {
			continue
		}
		if err := s.store.AppendSkew(sm.R, sm.S, sm.Eps, sm.Report); err != nil {
			return http.StatusInternalServerError, err
		}
		n++
	}
	return writeJSON(w, http.StatusOK, map[string]int{"imported": n})
}

// tuplesToBlob serialises tuples in the dstore columnar tuple format.
// The colfile layer is mmap/file-based, so the round trip goes through
// a scratch file rather than adding a second wire codec.
func tuplesToBlob(ts []spatialjoin.Tuple) ([]byte, error) {
	f, err := os.CreateTemp("", "sjoin-handoff-*.col")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := dstore.WriteTuplesFile(path, ts); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}
