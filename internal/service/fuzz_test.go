package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/tuple"
)

// FuzzDecodeMutations feeds arbitrary bodies to the NDJSON ingest
// decoder: it must not panic, and a batch it accepts must re-encode to
// NDJSON that decodes to the same batch.
func FuzzDecodeMutations(f *testing.F) {
	f.Add([]byte(`{"set":"r","id":1,"x":0.5,"y":2}` + "\n" + `{"op":"delete","set":"S","id":-7}`))
	f.Add([]byte("# comment\n\n{\"op\":\"upsert\",\"set\":\"s\",\"id\":9,\"x\":-1e300,\"y\":-0}\n"))
	f.Add([]byte(`{"set":"q","id":1}`))
	f.Add([]byte(`{"set":"r","id":1,"x":1e400}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		batch, err := decodeMutations(bytes.NewReader(body))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		for _, m := range batch {
			w := streamMutationWire{Set: "r", ID: m.Tuple.ID, X: m.Tuple.Pt.X, Y: m.Tuple.Pt.Y}
			if m.Set == tuple.S {
				w.Set = "s"
			}
			if m.Delete {
				w.Op = "delete"
			}
			line, err := json.Marshal(w)
			if err != nil {
				t.Fatalf("encode %+v: %v", m, err)
			}
			enc.Write(append(line, '\n'))
		}
		again, err := decodeMutations(&enc)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !reflect.DeepEqual(again, batch) {
			t.Fatalf("batch %+v decodes back as %+v", batch, again)
		}
	})
}

// FuzzDatasetBodies posts arbitrary bytes as a point and a geometry
// dataset upload under a fixed name: every reply must be a 2xx or a 4xx,
// never a 5xx or a panic. The query is fixed so the fuzzer cannot ask
// for a generated set.
func FuzzDatasetBodies(f *testing.F) {
	for _, body := range []string{
		"1 2\n3 4 payload\n",
		"# comment\n\n-1e300 0\n",
		"nan 1\n",
		"1e400 1\n",
		"1 inf\n",
		"1\n",
		"",
		"POLYGON ((0 0, 1 0, 1 1, 0 0))\nBOX (0 0, 2 2)\nPOINT (1 1)\nLINESTRING (0 0, 3 3)\n",
		"POLYGON ((0 0, nan 0, 1 1, 0 0))\n",
		"LINESTRING (0 0)\n",
		"\x00\xff",
	} {
		f.Add([]byte(body))
	}
	s := New(Config{MaxUploadBytes: 1 << 20})
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/datasets?name=x", "/v1/geodatasets?name=x"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code < 200 || rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d (%s)", path, body, rec.Code, rec.Body.String())
			}
		}
	})
}

// FuzzJoinBodies posts arbitrary bytes as the /v1/join and /v1/geojoin
// bodies against two tiny point and two tiny geometry datasets: every
// reply must be a 2xx or a 4xx — never a 5xx, a panic or an allocation
// the size of a hostile number in the body. The one 5xx allowed is the
// 504 of a body that set its own timeout_ms.
func FuzzJoinBodies(f *testing.F) {
	for _, body := range []string{
		`{"r":"r","s":"s","eps":0.5}`,
		`{"r":"r","s":"s","eps":0}`,
		`{"r":"r","s":"s","eps":1000,"collect":true,"limit":3}`,
		`{"r":"r","s":"s","eps":1e308,"algorithm":"sedona"}`,
		`{"r":"r","s":"s","eps":1e308,"grid_res":1e308,"use_lpt":true}`,
		`{"r":"r","s":"s","eps":0.5,"workers":2000000000}`,
		`{"r":"r","s":"s","eps":0.5,"partitions":2000000000,"use_lpt":true}`,
		`{"r":"r","s":"s","eps":0.5,"algorithm":"nope"}`,
		`{"r":"r","s":"s","eps":0.5,"algorithm":"disk","sample_fraction":1}`,
		`{"r":"r","s":"s","eps":0.5,"algorithm":"eps-grid","grid_res":0.5,"timeout_ms":1}`,
		`{"r":"r","s":"s","predicate":"intersects"}`,
		`{"r":"r","s":"s","predicate":"within","eps":1e308,"collect":true}`,
		`{"r":"r","s":"s","predicate":"contains","tiles":2000000000}`,
		`{"r":"r","s":"s","predicate":"intersects","workers":2000000000,"partitions":2000000000}`,
		`{"r":"r","s":"s","predicate":"nope","eps":-1}`,
		`{"r":"x","s":"s","eps":0.5}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{})
	f.Cleanup(func() { s.Close() })
	for name, seed := range map[string]int64{"r": 1, "s": 2} {
		if _, err := s.Registry.Put(name, spatialjoin.GenerateUniform(40, seed)); err != nil {
			f.Fatal(err)
		}
		if _, err := s.geo.put(name, geoTestObjects(seed, 20, seed*100_000)); err != nil {
			f.Fatal(err)
		}
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var deadline struct {
			TimeoutMillis int64 `json:"timeout_ms"`
		}
		timed := json.Unmarshal(body, &deadline) == nil && deadline.TimeoutMillis > 0
		for _, path := range []string{"/v1/join", "/v1/geojoin"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if timed && rec.Code == http.StatusGatewayTimeout {
				continue
			}
			if rec.Code < 200 || rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d (%s)", path, body, rec.Code, rec.Body.String())
			}
		}
	})
}
