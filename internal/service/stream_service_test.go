package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"spatialjoin"
)

// TestStreamPlanCacheGeneration is the plan-cache regression test for
// in-place dataset mutation: a plan built before Registry.Apply must not
// be served after it, even though name and revision are unchanged.
func TestStreamPlanCacheGeneration(t *testing.T) {
	s := testService(t, Config{})
	ctx := context.Background()
	req := JoinRequest{R: "r", S: "s", Eps: 0.5}

	if resp, err := s.Join(ctx, req); err != nil || resp.PlanCache != "miss" {
		t.Fatalf("first join: resp=%+v err=%v", resp, err)
	}
	if resp, err := s.Join(ctx, req); err != nil || resp.PlanCache != "hit" {
		t.Fatalf("second join: resp=%+v err=%v", resp, err)
	}

	before, _ := s.Registry.Get("r")
	gen, err := s.Registry.Apply("r",
		[]spatialjoin.Tuple{{ID: 1 << 40, Pt: spatialjoin.Point{X: 0.5, Y: 0.5}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen != before.Gen+1 {
		t.Fatalf("gen = %d, want %d", gen, before.Gen+1)
	}
	after, _ := s.Registry.Get("r")
	if after.Rev != before.Rev {
		t.Fatalf("Apply changed the revision: %d -> %d", before.Rev, after.Rev)
	}
	if len(after.Tuples) != len(before.Tuples)+1 {
		t.Fatalf("points = %d, want %d", len(after.Tuples), len(before.Tuples)+1)
	}

	// Same name, same revision — but the generation moved, so the key
	// differs and the stale plan cannot be served.
	if resp, err := s.Join(ctx, req); err != nil || resp.PlanCache != "miss" {
		t.Fatalf("post-mutation join: resp=%+v err=%v (stale plan served)", resp, err)
	}
	if resp, err := s.Join(ctx, req); err != nil || resp.PlanCache != "hit" {
		t.Fatalf("post-mutation rejoin: resp=%+v err=%v", resp, err)
	}

	// Deletes that would empty the dataset are rejected atomically.
	ids := make([]int64, len(after.Tuples))
	for i, tp := range after.Tuples {
		ids[i] = tp.ID
	}
	if _, err := s.Registry.Apply("r", nil, ids); err == nil {
		t.Fatal("emptying Apply accepted")
	}
	if _, err := s.Registry.Apply("nope", nil, nil); err == nil {
		t.Fatal("Apply on unknown dataset accepted")
	}
}

// TestStreamHTTPEndToEnd drives the full streaming surface over HTTP:
// create a stream linked to registry datasets, subscribe with a
// snapshot, ingest NDJSON mutations, and check that (a) the subscriber's
// accumulated view converges to the live result set, (b) the mirrored
// datasets make a batch join agree with it, and (c) deleting the stream
// ends the feed.
func TestStreamHTTPEndToEnd(t *testing.T) {
	s := New(Config{})
	if _, err := s.Registry.Put("sr", []spatialjoin.Tuple{
		{ID: 1, Pt: spatialjoin.Point{X: 1, Y: 1}},
		{ID: 2, Pt: spatialjoin.Point{X: 3, Y: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry.Put("ss", []spatialjoin.Tuple{
		{ID: 10, Pt: spatialjoin.Point{X: 1.25, Y: 1}},
		{ID: 11, Pt: spatialjoin.Point{X: 3, Y: 3.25}},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"name":"live","eps":0.5,"min_x":0,"min_y":0,"max_x":4,"max_y":4,
		"grid_res":2.5,"r_dataset":"sr","s_dataset":"ss"}`
	resp, err := http.Post(srv.URL+"/v1/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var info StreamInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.LiveR != 2 || info.LiveS != 2 {
		t.Fatalf("seeded stream info = %+v", info)
	}

	// A duplicate create conflicts.
	resp, err = http.Post(srv.URL+"/v1/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create status = %d", resp.StatusCode)
	}

	// Subscribe with a snapshot: the seeded pairs arrive first.
	sub, err := http.Get(srv.URL + "/v1/stream/subscribe?name=live&snapshot=true")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if sub.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status = %d", sub.StatusCode)
	}
	type wire struct {
		Op  string `json:"op"`
		RID int64  `json:"rid"`
		SID int64  `json:"sid"`
	}
	lines := make(chan wire, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(sub.Body)
		for sc.Scan() {
			var d wire
			if json.Unmarshal(sc.Bytes(), &d) == nil {
				lines <- d
			}
		}
	}()
	acc := map[[2]int64]bool{}
	fold := func(d wire) {
		key := [2]int64{d.RID, d.SID}
		if d.Op == "+" {
			if acc[key] {
				t.Errorf("duplicate + for %v", key)
			}
			acc[key] = true
		} else {
			if !acc[key] {
				t.Errorf("- for absent %v", key)
			}
			delete(acc, key)
		}
	}
	waitFor := func(want map[[2]int64]bool) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			if fmt.Sprint(sortedKeys(acc)) == fmt.Sprint(sortedKeys(want)) {
				return
			}
			select {
			case d, ok := <-lines:
				if !ok {
					t.Fatalf("feed ended early: acc=%v want=%v", sortedKeys(acc), sortedKeys(want))
				}
				fold(d)
			case <-deadline:
				t.Fatalf("timeout: acc=%v want=%v", sortedKeys(acc), sortedKeys(want))
			}
		}
	}
	waitFor(map[[2]int64]bool{{1, 10}: true, {2, 11}: true})

	// Ingest: a new qualifying pair appears, one disappears with its
	// deleted endpoint. Comment and blank lines are tolerated.
	mutations := `# move the world
{"op":"upsert","set":"r","id":3,"x":2,"y":2}

{"op":"upsert","set":"s","id":12,"x":2.25,"y":2}
{"op":"delete","set":"s","id":10}
`
	resp, err = http.Post(srv.URL+"/v1/stream/ingest?name=live", "application/x-ndjson", strings.NewReader(mutations))
	if err != nil {
		t.Fatal(err)
	}
	var ing streamIngestResponse
	json.NewDecoder(resp.Body).Decode(&ing)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ing.Accepted != 3 || ing.MirrorError != "" {
		t.Fatalf("ingest status=%d resp=%+v", resp.StatusCode, ing)
	}
	want := map[[2]int64]bool{{2, 11}: true, {3, 12}: true}
	waitFor(want)

	// The mirror bumped the linked datasets, so a batch join over them
	// sees the live points and agrees with the accumulated deltas.
	jr, err := s.Join(context.Background(), JoinRequest{R: "sr", S: "ss", Eps: 0.5, GridRes: 2.5, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]int64]bool{}
	for _, p := range jr.Pairs {
		got[p] = true
	}
	if fmt.Sprint(sortedKeys(got)) != fmt.Sprint(sortedKeys(want)) {
		t.Fatalf("batch join = %v, want %v", sortedKeys(got), sortedKeys(want))
	}

	// Metrics surface the streaming counters.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	mresp.Body.Close()
	metrics := sb.String()
	for _, want := range []string{
		"sjoind_stream_ingested_total 7",
		`sjoind_stream_delta_pairs_total{op="add"}`,
		"sjoind_streams 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Deleting the stream closes the subscription and ends the feed.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/stream/live", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	select {
	case _, ok := <-lines:
		if ok {
			// A last flushed delta is fine; the channel must still close.
			for range lines {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("feed did not end after stream deletion")
	}
	if s.ListStreams() != nil && len(s.ListStreams()) != 0 {
		t.Fatalf("streams still listed: %v", s.ListStreams())
	}
}

// TestStreamHTTPValidation covers the ingest/create error surface.
func TestStreamHTTPValidation(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(url, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/stream", `{"name":"x","eps":-1,"max_x":1,"max_y":1}`); code != http.StatusBadRequest {
		t.Fatalf("bad eps status = %d", code)
	}
	if code := post("/v1/stream", `{"name":"x","eps":0.1,"max_x":1,"max_y":1,"policy":"uni-r"}`); code != http.StatusBadRequest {
		t.Fatalf("bad policy status = %d", code)
	}
	if code := post("/v1/stream", `{"name":"x","eps":0.1,"max_x":1,"max_y":1,"r_dataset":"ghost"}`); code != http.StatusNotFound {
		t.Fatalf("unknown linked dataset status = %d", code)
	}
	if code := post("/v1/stream/ingest?name=ghost", `{"set":"r","id":1,"x":0,"y":0}`); code != http.StatusNotFound {
		t.Fatalf("unknown stream ingest status = %d", code)
	}
	if code := post("/v1/stream", `{"name":"x","eps":0.1,"max_x":1,"max_y":1}`); code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}
	if code := post("/v1/stream/ingest?name=x", `{"set":"q","id":1}`); code != http.StatusBadRequest {
		t.Fatalf("bad set status = %d", code)
	}
	if code := post("/v1/stream/ingest?name=x", `{"op":"merge","set":"r","id":1}`); code != http.StatusBadRequest {
		t.Fatalf("bad op status = %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/stream/subscribe?name=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream subscribe status = %d", resp.StatusCode)
	}
}

// TestStreamIngestMirrorErrorIsNotNotFound pins the ingest status of an
// applied batch whose mirror fails: 200 with mirror_error, even when the
// mirror error names a dataset called "unknown stream" — only a missing
// stream answers 404.
func TestStreamIngestMirrorErrorIsNotNotFound(t *testing.T) {
	s := New(Config{})
	if _, err := s.Registry.Put("unknown stream", []spatialjoin.Tuple{
		{ID: 1, Pt: spatialjoin.Point{X: 1, Y: 1}},
		{ID: 2, Pt: spatialjoin.Point{X: 3, Y: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateStream(StreamConfig{Name: "live", Eps: 0.5, MaxX: 4, MaxY: 4, RDataset: "unknown stream"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"op":"delete","set":"r","id":1}` + "\n" + `{"op":"delete","set":"r","id":2}`
	resp, err := http.Post(srv.URL+"/v1/stream/ingest?name=live", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got streamIngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || got.Accepted != 2 || !strings.Contains(got.MirrorError, "would empty") {
		t.Fatalf("applied batch with a failed mirror: status %d, response %+v", resp.StatusCode, got)
	}
	st, err := s.GetStream("live")
	if err != nil {
		t.Fatal(err)
	}
	if c := st.eng.Counters(); c.LiveR != 0 {
		t.Fatalf("LiveR = %d after deleting both R points, want 0", c.LiveR)
	}
}

// TestStatusIgnoresErrorText pins the HTTP statuses to the error kinds,
// not to words in the message: a missing dataset named "already exists"
// is a 404, a duplicate stream named "unknown dataset" is a 409, and a
// join error that merely quotes the words "unknown dataset" is a 400.
func TestStatusIgnoresErrorText(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"name":"x","eps":0.1,"max_x":1,"max_y":1,"r_dataset":"already exists"}`); code != http.StatusNotFound {
		t.Fatalf("missing dataset named %q: status %d, want 404", "already exists", code)
	}
	dup := `{"name":"unknown dataset","eps":0.1,"max_x":1,"max_y":1}`
	if code := post(dup); code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}
	if code := post(dup); code != http.StatusConflict {
		t.Fatalf("duplicate stream named %q: status %d, want 409", "unknown dataset", code)
	}
	if code := joinErrorCode(fmt.Errorf("service: field %q is not allowed", "unknown dataset")); code != http.StatusBadRequest {
		t.Fatalf("join error quoting %q: status %d, want 400", "unknown dataset", code)
	}
	if code := joinErrorCode(fmt.Errorf("join: %w", fmt.Errorf("%w %q", ErrUnknownDataset, "r"))); code != http.StatusNotFound {
		t.Fatalf("wrapped ErrUnknownDataset: status %d, want 404", code)
	}
}

func sortedKeys(m map[[2]int64]bool) [][2]int64 {
	out := make([][2]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
