package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

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
