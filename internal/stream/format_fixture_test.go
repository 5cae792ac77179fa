package stream_test

import (
	"bytes"
	"os"
	"testing"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

// fixtureSJSE is an SJSE engine checkpoint written by an earlier build
// from the engine fixtureEngine drives. The format carries a version
// number, so any change to these bytes must bump it.
const fixtureSJSE = "testdata/engine.sjse"

// fixtureEngine replays the mutation history the fixture was captured
// from: payloads, a move, a delete and enough
// mutations to run the rebalancer.
func fixtureEngine(t *testing.T) *stream.Engine {
	t.Helper()
	clock := time.Unix(1_700_000_000, 0)
	e, err := stream.New(ckptConfig(func() time.Time { return clock }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	up := func(set tuple.Set, id int64, x, y float64, pay string) stream.Mutation {
		m := stream.Mutation{Set: set, Tuple: tuple.Tuple{ID: id, Pt: geom.Point{X: x, Y: y}}}
		if pay != "" {
			m.Tuple.Payload = []byte(pay)
		}
		return m
	}
	batches := [][]stream.Mutation{
		{up(tuple.R, 1, 1, 1, "r1"), up(tuple.S, 2, 1.25, 1, ""), up(tuple.R, 3, 2.9, 3.1, "")},
		{up(tuple.S, 4, 3.05, 3.2, "s4"), up(tuple.R, 5, 6.5, 0.25, ""), up(tuple.S, 6, 6.6, 0.5, "")},
		{up(tuple.R, 1, 1.1, 0.95, "r1-moved"), {Set: tuple.S, Delete: true, Tuple: tuple.Tuple{ID: 6}}},
		{up(tuple.S, 7, 4.0, 4.0, ""), up(tuple.S, 8, 3.9, 4.2, "s8"), up(tuple.R, 9, 4.1, 3.8, "")},
		{up(tuple.R, 10, 7.75, 7.75, ""), up(tuple.S, 11, 7.5, 7.9, ""), up(tuple.S, 12, 1.2, 1.1, "")},
	}
	for _, b := range batches {
		clock = clock.Add(time.Second)
		e.Apply(b)
	}
	return e
}

// TestFormatFixtures pins the SJSE checkpoint format: the fixture
// restores to the engine state it was captured from, and both that
// engine and the restored one re-encode to exactly the fixture's bytes.
func TestFormatFixtures(t *testing.T) {
	want, err := os.ReadFile(fixtureSJSE)
	if err != nil {
		t.Fatal(err)
	}
	orig := fixtureEngine(t)
	defer orig.Close()
	var enc bytes.Buffer
	if err := orig.WriteCheckpoint(&enc); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if !bytes.Equal(enc.Bytes(), want) {
		t.Fatalf("engine encodes to %d bytes that differ from the %d-byte fixture", enc.Len(), len(want))
	}

	restored, err := stream.Restore(ckptConfig(nil), want)
	if err != nil {
		t.Fatalf("Restore(fixture): %v", err)
	}
	defer restored.Close()
	c := restored.Counters()
	if c.Upserts != 13 || c.Deletes != 1 || c.LiveR != 5 || c.LiveS != 6 {
		t.Fatalf("restored counters %+v", c)
	}
	if oc := orig.Counters(); c != oc {
		t.Fatalf("restored counters %+v, want %+v", c, oc)
	}
	got, exp := sortedPairs(restored.CurrentPairs()), sortedPairs(orig.CurrentPairs())
	if len(got) != len(exp) || len(exp) == 0 {
		t.Fatalf("restored %d pairs, want %d (> 0)", len(got), len(exp))
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("restored pair %d = %+v, want %+v", i, got[i], exp[i])
		}
	}
	enc.Reset()
	if err := restored.WriteCheckpoint(&enc); err != nil {
		t.Fatalf("WriteCheckpoint(restored): %v", err)
	}
	if !bytes.Equal(enc.Bytes(), want) {
		t.Fatal("restored engine does not re-encode to the fixture's bytes")
	}
}
