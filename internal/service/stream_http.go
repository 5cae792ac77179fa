// HTTP surface of the streaming join engine:
//
//	POST   /v1/stream                create a stream (JSON body)
//	GET    /v1/stream                list streams
//	DELETE /v1/stream/{name}         tear a stream down
//	POST   /v1/stream/ingest?name=N  NDJSON mutations, one per line
//	GET    /v1/stream/subscribe?name=N[&snapshot=true]
//	                                 chunked NDJSON delta feed
//
// The subscribe response never ends on its own: deltas are flushed as
// they are emitted until the client disconnects or the stream is
// deleted. With snapshot=true the current result set is replayed first
// as "+" lines taken atomically with the subscription, so the client's
// accumulated view equals the live result set from the first byte.

package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"spatialjoin"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

// streamMutationWire is one NDJSON line of POST /v1/stream/ingest.
type streamMutationWire struct {
	Op  string  `json:"op,omitempty"` // "upsert" (default) or "delete"
	Set string  `json:"set"`          // "r" or "s"
	ID  int64   `json:"id"`
	X   float64 `json:"x,omitempty"`
	Y   float64 `json:"y,omitempty"`
}

// streamDeltaWire is one NDJSON line of the subscribe feed.
type streamDeltaWire struct {
	Op  string `json:"op"` // "+" or "-"
	RID int64  `json:"rid"`
	SID int64  `json:"sid"`
}

// streamIngestResponse summarises one ingest batch.
type streamIngestResponse struct {
	Accepted      int64  `json:"accepted"`
	Rejected      int64  `json:"rejected"`
	Expired       int64  `json:"expired"`
	DeltasAdded   int64  `json:"deltas_added"`
	DeltasRemoved int64  `json:"deltas_removed"`
	Flips         int64  `json:"agreement_flips"`
	Migrations    int64  `json:"migrations"`
	MirrorError   string `json:"mirror_error,omitempty"`
}

func (s *Service) registerStreamRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/stream", s.instrument("stream_create", s.handleCreateStream))
	mux.HandleFunc("GET /v1/stream", s.instrument("stream_list", s.handleListStreams))
	mux.HandleFunc("DELETE /v1/stream/{name}", s.instrument("stream_delete", s.handleDeleteStream))
	mux.HandleFunc("POST /v1/stream/ingest", s.instrument("stream_ingest", s.handleStreamIngest))
	mux.HandleFunc("GET /v1/stream/subscribe", s.handleStreamSubscribe)
}

func (s *Service) handleCreateStream(w http.ResponseWriter, r *http.Request) (int, error) {
	var cfg StreamConfig
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return http.StatusBadRequest, fmt.Errorf("service: bad stream config: %w", err)
	}
	info, err := s.CreateStream(cfg)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrStreamExists) {
			code = http.StatusConflict
		} else if errors.Is(err, ErrUnknownDataset) {
			code = http.StatusNotFound
		}
		return code, err
	}
	return writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleListStreams(w http.ResponseWriter, r *http.Request) (int, error) {
	return writeJSON(w, http.StatusOK, s.ListStreams())
}

func (s *Service) handleDeleteStream(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.PathValue("name")
	if !s.DeleteStream(name) {
		return http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownStream, name)
	}
	return writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Service) handleStreamIngest(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.URL.Query().Get("name")
	if name == "" {
		return http.StatusBadRequest, fmt.Errorf("service: query parameter 'name' is required")
	}
	batch, err := decodeMutations(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		return http.StatusBadRequest, err
	}
	br, err := s.StreamIngest(name, batch)
	if errors.Is(err, ErrUnknownStream) {
		return http.StatusNotFound, err
	}
	if errors.Is(err, ErrPersist) {
		// The batch was not applied: nothing to summarise, retry later.
		return http.StatusInternalServerError, err
	}
	resp := streamIngestResponse{
		Accepted:    br.Upserts + br.Deletes,
		Rejected:    br.Rejected,
		Expired:     br.Expired,
		DeltasAdded: br.DeltasAdded, DeltasRemoved: br.DeltasRemoved,
		Flips: br.AgreementFlips, Migrations: br.Migrations,
	}
	if err != nil {
		resp.MirrorError = err.Error()
	}
	return writeJSON(w, http.StatusOK, resp)
}

// decodeMutations parses the NDJSON ingest body. Blank lines and
// #-comment lines are skipped; any malformed line fails the whole batch
// so clients never silently lose mutations.
func decodeMutations(body io.Reader) ([]stream.Mutation, error) {
	var batch []stream.Mutation
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var wire streamMutationWire
		if err := json.Unmarshal([]byte(line), &wire); err != nil {
			return nil, fmt.Errorf("service: ingest line %d: %w", lineNo, err)
		}
		var set tuple.Set
		switch strings.ToLower(wire.Set) {
		case "r":
			set = tuple.R
		case "s":
			set = tuple.S
		default:
			return nil, fmt.Errorf("service: ingest line %d: set must be \"r\" or \"s\", got %q", lineNo, wire.Set)
		}
		m := stream.Mutation{Set: set, Tuple: spatialjoin.Tuple{ID: wire.ID, Pt: spatialjoin.Point{X: wire.X, Y: wire.Y}}}
		switch strings.ToLower(wire.Op) {
		case "", "upsert":
		case "delete":
			m.Delete = true
		default:
			return nil, fmt.Errorf("service: ingest line %d: op must be \"upsert\" or \"delete\", got %q", lineNo, wire.Op)
		}
		batch = append(batch, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("service: reading ingest body: %w", err)
	}
	return batch, nil
}

// handleStreamSubscribe streams deltas as chunked NDJSON until the
// client goes away or the stream is deleted. It bypasses instrument():
// the response code is committed long before the handler returns.
func (s *Service) handleStreamSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	st, err := s.GetStream(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		s.Metrics.Requests.Inc("stream_subscribe", "404")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("service: response writer cannot stream"))
		s.Metrics.Requests.Inc("stream_subscribe", "500")
		return
	}

	var sub *stream.Subscription
	var snapshot []spatialjoin.Pair
	if r.URL.Query().Get("snapshot") == "true" {
		sub, snapshot = st.eng.SubscribeWithSnapshot()
	} else {
		sub = st.eng.Subscribe()
	}
	defer sub.Close()
	s.updateStreamGauges()
	defer s.updateStreamGauges()
	s.Metrics.Requests.Inc("stream_subscribe", "200")

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, p := range snapshot {
		enc.Encode(streamDeltaWire{Op: "+", RID: p.RID, SID: p.SID})
	}
	flusher.Flush()

	// Unblock Next when the client disconnects; Close is idempotent.
	go func() {
		<-r.Context().Done()
		sub.Close()
	}()
	for {
		d, ok := sub.Next()
		if !ok {
			return // subscription closed: client gone or stream deleted
		}
		enc.Encode(streamDeltaWire{Op: d.Op.String(), RID: d.RID, SID: d.SID})
		// Drain whatever else is queued before paying for a flush.
		for {
			d, ok := sub.TryNext()
			if !ok {
				break
			}
			enc.Encode(streamDeltaWire{Op: d.Op.String(), RID: d.RID, SID: d.SID})
		}
		flusher.Flush()
	}
}
