package dstore

import (
	"bytes"
	"testing"
)

func TestTelemSnapshotLogReplay(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rec.TelemSnapshot != nil {
		t.Fatalf("fresh store has telemetry: %q", rec.TelemSnapshot)
	}
	if err := st.AppendTelemSnapshot([]byte(`{"gen":1}`)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := st.AppendTelemSnapshot([]byte(`{"gen":2}`)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if got := st.telemBlob; !bytes.Equal(got, []byte(`{"gen":2}`)) {
		t.Fatalf("live snapshot = %q", got)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Latest-wins across replay.
	st2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if !bytes.Equal(rec2.TelemSnapshot, []byte(`{"gen":2}`)) {
		t.Fatalf("recovered snapshot = %q, want gen:2", rec2.TelemSnapshot)
	}
}

func TestTelemSnapshotCheckpointed(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := st.AppendTelemSnapshot([]byte(`{"gen":1}`)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := st.WriteCheckpoint(CheckpointState{NextRev: 1}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The checkpoint alone must carry the blob (log truncated through it).
	st2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !bytes.Equal(rec2.TelemSnapshot, []byte(`{"gen":1}`)) {
		t.Fatalf("checkpoint snapshot = %q, want gen:1", rec2.TelemSnapshot)
	}

	// A record appended after the checkpoint supersedes it on replay.
	if err := st2.AppendTelemSnapshot([]byte(`{"gen":9}`)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st3, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st3.Close()
	if !bytes.Equal(rec3.TelemSnapshot, []byte(`{"gen":9}`)) {
		t.Fatalf("post-checkpoint snapshot = %q, want gen:9", rec3.TelemSnapshot)
	}
}
