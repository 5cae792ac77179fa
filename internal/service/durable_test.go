package service

import (
	"context"
	"sort"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

// crash abandons the service without the final checkpoint Close would
// write, so the next Open exercises log-tail recovery.
func crash(t *testing.T, s *Service) {
	t.Helper()
	if s.store == nil {
		t.Fatal("crash on a non-durable service")
	}
	if err := s.store.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}
}

func openDurable(t *testing.T, dir string) *Service {
	t.Helper()
	s, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestDurableGenerationPersisted is the restart half of the plan-cache
// generation regression test (TestStreamPlanCacheGeneration covers the
// in-process half): revisions and generations survive a crash, so a
// restarted daemon can never hand out a (name, rev, gen) plan key that an
// earlier incarnation already used for different data.
func TestDurableGenerationPersisted(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	rev1, err := s.Registry.Put("x", spatialjoin.GenerateUniform(50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry.Apply("x", []spatialjoin.Tuple{{ID: 900, Pt: spatialjoin.Point{X: 0.5, Y: 0.5}}}, nil); err != nil {
		t.Fatal(err)
	}
	gen, err := s.Registry.Apply("x", []spatialjoin.Tuple{{ID: 901, Pt: spatialjoin.Point{X: 0.6, Y: 0.5}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("gen = %d, want 2", gen)
	}
	crash(t, s)

	s2 := openDurable(t, dir)
	defer s2.Close()
	d, err := s2.Registry.Get("x")
	if err != nil {
		t.Fatalf("dataset lost across restart: %v", err)
	}
	if d.Rev != rev1 || d.Gen != 2 {
		t.Fatalf("recovered r%d g%d, want r%d g2", d.Rev, d.Gen, rev1)
	}
	if len(d.Tuples) != 52 {
		t.Fatalf("recovered %d points, want 52", len(d.Tuples))
	}
	// The counters keep moving from where they left off — never reset.
	gen, err = s2.Registry.Apply("x", []spatialjoin.Tuple{{ID: 902, Pt: spatialjoin.Point{X: 0.7, Y: 0.5}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Fatalf("post-restart gen = %d, want 3 (stale plan key resurrected)", gen)
	}
	rev2, err := s2.Registry.Put("y", spatialjoin.GenerateUniform(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rev2 <= rev1 {
		t.Fatalf("post-restart rev %d did not advance past %d", rev2, rev1)
	}
}

func enginePairs(t *testing.T, s *Service, name string) []spatialjoin.Pair {
	t.Helper()
	st, err := s.GetStream(name)
	if err != nil {
		t.Fatalf("GetStream(%s): %v", name, err)
	}
	ps := st.eng.CurrentPairs()
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].RID != ps[j].RID {
			return ps[i].RID < ps[j].RID
		}
		return ps[i].SID < ps[j].SID
	})
	return ps
}

// TestDurableServiceCrashRecovery drives the whole durable surface in
// process: datasets, a live stream, a join (which persists its skew
// report), an explicit checkpoint, post-checkpoint mutations, then a
// simulated crash. The reopened service must agree with the pre-crash
// one on every observable.
func TestDurableServiceCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if _, err := s.Registry.Put("r", spatialjoin.GenerateUniform(500, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry.Put("s", spatialjoin.GenerateUniform(500, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateStream(StreamConfig{
		Name: "live", Eps: 0.1, MinX: 0, MinY: 0, MaxX: 1, MaxY: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ingest := func(sv *Service, ids ...int64) {
		t.Helper()
		var batch []stream.Mutation
		for _, id := range ids {
			batch = append(batch, stream.Mutation{
				Set:   tuple.Set(id % 2),
				Tuple: spatialjoin.Tuple{ID: id, Pt: spatialjoin.Point{X: float64(id%10) / 10, Y: float64(id%7) / 10}},
			})
		}
		if _, err := sv.StreamIngest("live", batch); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	ingest(s, 1, 2, 3, 4, 5, 6)

	joinResp, err := s.Join(context.Background(), JoinRequest{R: "r", S: "s", Eps: 0.05})
	if err != nil {
		t.Fatalf("join: %v", err)
	}

	ckSeq, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ckSeq == 0 {
		t.Fatal("checkpoint seq 0")
	}

	// Post-checkpoint work that must come back via log replay alone.
	ingest(s, 7, 8, 9, 10)
	if _, err := s.Registry.Apply("r", []spatialjoin.Tuple{{ID: 1 << 40, Pt: spatialjoin.Point{X: 0.5, Y: 0.5}}}, nil); err != nil {
		t.Fatal(err)
	}
	wantPairs := enginePairs(t, s, "live")
	wantList := s.Registry.List()
	crash(t, s)

	s2 := openDurable(t, dir)
	defer s2.Close()

	gotList := s2.Registry.List()
	if len(gotList) != len(wantList) {
		t.Fatalf("recovered %d datasets, want %d", len(gotList), len(wantList))
	}
	sort.Slice(gotList, func(i, j int) bool { return gotList[i].Name < gotList[j].Name })
	sort.Slice(wantList, func(i, j int) bool { return wantList[i].Name < wantList[j].Name })
	for i := range wantList {
		if gotList[i] != wantList[i] {
			t.Fatalf("dataset %d = %+v, want %+v", i, gotList[i], wantList[i])
		}
	}

	gotPairs := enginePairs(t, s2, "live")
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("recovered %d stream pairs, want %d", len(gotPairs), len(wantPairs))
	}
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("stream pair %d = %+v, want %+v", i, gotPairs[i], wantPairs[i])
		}
	}

	// The join's skew report survived, so the planner can warm-start.
	hist, err := s2.SkewHistory()
	if err != nil {
		t.Fatalf("SkewHistory: %v", err)
	}
	if len(hist) == 0 {
		t.Fatal("no skew history recovered")
	}
	if hist[0].R != "r" || hist[0].S != "s" {
		t.Fatalf("skew sample = %+v", hist[0])
	}

	// Recovery was checkpoint + tail, not a full-log replay.
	if s2.Metrics.DstoreCheckpointSeq.Value() == 0 {
		t.Fatal("recovery ignored the checkpoint")
	}
	replayed := s2.Metrics.DstoreReplayedRecords.Value()
	if replayed == 0 || replayed > 6 {
		t.Fatalf("replayed %d records, want the short post-checkpoint tail", replayed)
	}

	// And the recovered service keeps serving: a join over recovered
	// datasets returns the same checksum as before the crash.
	resp2, err := s2.Join(context.Background(), JoinRequest{R: "r", S: "s", Eps: 0.05})
	if err != nil {
		t.Fatalf("post-recovery join: %v", err)
	}
	if resp2.Results != joinResp.Results || resp2.Checksum != joinResp.Checksum {
		t.Fatalf("post-recovery join = %d pairs (%s), want %d (%s)",
			resp2.Results, resp2.Checksum, joinResp.Results, joinResp.Checksum)
	}
	if _, err := s2.StreamIngest("live", []stream.Mutation{{Set: tuple.R, Tuple: spatialjoin.Tuple{ID: 99, Pt: spatialjoin.Point{X: 0.5, Y: 0.5}}}}); err != nil {
		t.Fatalf("post-recovery ingest: %v", err)
	}
}

// TestDurableStreamDeleteSurvivesRestart checks the delete tombstone:
// a stream deleted before the crash must not come back.
func TestDurableStreamDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if _, err := s.CreateStream(StreamConfig{Name: "gone", Eps: 0.1, MaxX: 1, MaxY: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateStream(StreamConfig{Name: "kept", Eps: 0.1, MaxX: 1, MaxY: 1}); err != nil {
		t.Fatal(err)
	}
	if !s.DeleteStream("gone") {
		t.Fatal("delete failed")
	}
	crash(t, s)

	s2 := openDurable(t, dir)
	defer s2.Close()
	if _, err := s2.GetStream("gone"); err == nil {
		t.Fatal("deleted stream resurrected by recovery")
	}
	if _, err := s2.GetStream("kept"); err != nil {
		t.Fatalf("surviving stream lost: %v", err)
	}
}

// TestInMemoryServiceUnchanged pins the zero-config path: no data dir
// means no store, no persistence hooks, and Checkpoint refuses.
func TestInMemoryServiceUnchanged(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.store != nil {
		t.Fatal("a store without a data dir")
	}
	if _, err := s.Checkpoint(); err != ErrNotDurable {
		t.Fatalf("Checkpoint = %v, want ErrNotDurable", err)
	}
	if _, err := s.SkewHistory(); err != ErrNotDurable {
		t.Fatalf("SkewHistory = %v, want ErrNotDurable", err)
	}
	if _, err := s.Registry.Put("x", spatialjoin.GenerateUniform(10, 1)); err != nil {
		t.Fatal(err)
	}
}
