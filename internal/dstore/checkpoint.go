package dstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"spatialjoin/internal/codec"
)

// Checkpoint file: a JSON manifest of registry, stream, and skew state
// plus one opaque engine snapshot blob per stream, CRC-framed as a
// whole. The file name carries the log sequence number the checkpoint
// was taken at; recovery picks the newest file that validates and
// falls back to older ones.
//
// Layout:
//
//	magic u32 "SJK1" | ver u16 | pad u16 | u32 manifestLen | manifest JSON
//	( u32 blobLen | blob )*   one per manifest stream, in order
//	crc u32 over everything before
const (
	ckptMagic   = 0x314B4A53 // "SJK1" little-endian
	ckptVersion = 1
	ckptKeep    = 2 // checkpoints retained (newest + one fallback)
)

// ckptManifest is the JSON manifest of one checkpoint.
type ckptManifest struct {
	NextRev     int64         `json:"next_rev"`
	RegistrySeq uint64        `json:"registry_seq"`
	StreamsSeq  uint64        `json:"streams_seq"`
	SkewSeq     uint64        `json:"skew_seq"`
	TelemSeq    uint64        `json:"telem_seq,omitempty"`
	LastSeq     uint64        `json:"last_seq"`
	Datasets    []ckptDataset `json:"datasets"`
	Streams     []ckptStream  `json:"streams"`
	Skew        []SkewSample  `json:"skew,omitempty"`
	Telem       []byte        `json:"telem,omitempty"` // opaque telemetry snapshot (base64 via JSON)
}

type ckptDataset struct {
	Name   string `json:"name"`
	Rev    int64  `json:"rev"`
	Gen    int64  `json:"gen"`
	File   string `json:"file"` // relative to the store root
	Points uint64 `json:"points"`
}

type ckptStream struct {
	Spec       StreamSpec `json:"spec"`
	CoveredSeq uint64     `json:"covered_seq"`
}

func ckptName(seq uint64) string { return fmt.Sprintf("ckpt-%016x.ck", seq) }

func parseCkptName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "ckpt-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".ck")
	if !ok || len(rest) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// writeCheckpointFile writes one checkpoint file durably.
func writeCheckpointFile(dir string, m ckptManifest, blobs [][]byte) (string, error) {
	mj, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	b := make([]byte, 0, 12+len(mj))
	b = binary.LittleEndian.AppendUint32(b, ckptMagic)
	b = binary.LittleEndian.AppendUint16(b, ckptVersion)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(mj)))
	b = append(b, mj...)
	for _, blob := range blobs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(blob)))
		b = append(b, blob...)
	}
	b = codec.Seal(b)

	path := filepath.Join(dir, ckptName(m.LastSeq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// readCheckpointFile parses and validates one checkpoint file.
func readCheckpointFile(path string) (ckptManifest, [][]byte, error) {
	var m ckptManifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, nil, err
	}
	body, err := codec.Unseal(data)
	if err != nil {
		return m, nil, fmt.Errorf("dstore: checkpoint: %w", err)
	}
	c := codec.NewReader(body)
	if c.U32() != ckptMagic {
		return m, nil, fmt.Errorf("dstore: not a checkpoint file")
	}
	if v := c.U16(); v != ckptVersion {
		return m, nil, fmt.Errorf("dstore: checkpoint version %d unsupported", v)
	}
	c.U16() // pad
	mj := c.Bytes(int(c.U32()))
	if err := c.Err(); err != nil {
		return m, nil, fmt.Errorf("dstore: checkpoint: %w", err)
	}
	if err := json.Unmarshal(mj, &m); err != nil {
		return m, nil, fmt.Errorf("dstore: checkpoint manifest: %w", err)
	}
	blobs := make([][]byte, 0, len(m.Streams))
	for range m.Streams {
		blobs = append(blobs, c.Bytes(int(c.U32())))
	}
	if err := c.Done(); err != nil {
		return m, nil, fmt.Errorf("dstore: checkpoint: %w", err)
	}
	return m, blobs, nil
}

// listCheckpoints returns checkpoint paths newest-first.
func listCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type ck struct {
		path string
		seq  uint64
	}
	var cks []ck
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseCkptName(e.Name()); ok {
			cks = append(cks, ck{path: filepath.Join(dir, e.Name()), seq: seq})
		}
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].seq > cks[j].seq })
	out := make([]string, len(cks))
	for i, c := range cks {
		out[i] = c.path
	}
	return out, nil
}
