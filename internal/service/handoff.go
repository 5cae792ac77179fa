// Dataset handoff: the shard-side half of the fleet's data movement.
// A dataset travels between shards as one columnar (.col) blob in the
// dstore tuple format — IDs and payloads preserved bit for bit, so a
// join against a shipped copy produces the same pair ids and checksum
// as against the original. The router drives these endpoints for
// replica placement, ring-change migration, and cross-shard join
// mirroring (optionally restricted to an x-range strip).

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
// as a columnar blob. Query parameters xlo/xhi restrict the export to
// an x-range (xlo inclusive; xhi inclusive only with inchi=1) — the
// strip filter the router's fan-out join uses. An empty filtered
// region answers 204 with no body.
func (s *Service) handleHandoffExport(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.PathValue("name")
	d, err := s.Registry.Get(name)
	if err != nil {
		return http.StatusNotFound, err
	}
	ts := d.Tuples
	q := r.URL.Query()
	if q.Get("xlo") != "" || q.Get("xhi") != "" {
		xlo, err := strconv.ParseFloat(q.Get("xlo"), 64)
		if err != nil {
			return http.StatusBadRequest, fmt.Errorf("service: bad xlo %q", q.Get("xlo"))
		}
		xhi, err := strconv.ParseFloat(q.Get("xhi"), 64)
		if err != nil {
			return http.StatusBadRequest, fmt.Errorf("service: bad xhi %q", q.Get("xhi"))
		}
		incHi := q.Get("inchi") == "1"
		kept := make([]spatialjoin.Tuple, 0, len(ts))
		for _, t := range ts {
			if t.Pt.X < xlo {
				continue
			}
			if t.Pt.X > xhi || (!incHi && t.Pt.X == xhi) {
				continue
			}
			kept = append(kept, t)
		}
		ts = kept
	}
	w.Header().Set("X-Sjoin-Rev", strconv.FormatInt(d.Rev, 10))
	w.Header().Set("X-Sjoin-Gen", strconv.FormatInt(d.Gen, 10))
	w.Header().Set("X-Sjoin-Points", strconv.Itoa(len(ts)))
	if len(ts) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return http.StatusNoContent, nil
	}
	blob, err := tuplesToBlob(ts)
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
