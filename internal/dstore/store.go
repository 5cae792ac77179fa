package dstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spatialjoin/internal/tuple"
)

// maxSkewSamples bounds the persisted skew history per (R, S, eps) key;
// an append past it drops the oldest sample.
const maxSkewSamples = 32

// Options tunes a Store.
type Options struct {
	// Fsync syncs the log after every append (crash-durable acks).
	// When false, appends are durable only at checkpoints and rotation.
	Fsync bool
	// OnAppend, OnFsync, OnSegments and OnCheckpoint feed metrics.
	OnAppend     func(recordBytes int64)
	OnFsync      func()
	OnSegments   func(n int64)
	OnCheckpoint func(seq uint64)
	// Logf receives non-fatal recovery notes (corrupt checkpoint
	// skipped, orphan file removed, ...).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// dsFile records which colfile currently backs a dataset on disk, and
// which (rev, gen) state that file contains. seq is the log position
// of the put record that created the file (0 when the file was written
// by a checkpoint, which covers it by construction).
type dsFile struct {
	path     string // relative to the store root
	rev, gen int64
	points   uint64
	seq      uint64
}

// obsoleteFile is a dataset file superseded by the record at seq; it
// may be deleted once a checkpoint covers that record.
type obsoleteFile struct {
	path string
	seq  uint64
}

// Store is the durable dataset store: an append-only record log plus
// checkpoint and columnar dataset files under one directory.
type Store struct {
	dir  string
	opts Options
	log  *wlog

	mu       sync.Mutex
	files    map[string]dsFile
	obsolete []obsoleteFile
	skew     map[string][]SkewSample
	skewKeys []string
	skewSeq  uint64

	telemBlob []byte // latest telemetry snapshot (opaque to dstore)
	telemSeq  uint64

	ckptMu sync.Mutex // serializes WriteCheckpoint
}

// RecoveredDataset is one dataset reconstructed from checkpoint + log.
type RecoveredDataset struct {
	Name     string
	Rev, Gen int64
	Tuples   []tuple.Tuple
}

// RecoveredBatch is one stream mutation batch from the log tail, to be
// re-applied after the engine snapshot is restored.
type RecoveredBatch struct {
	AppliedAt time.Time
	Muts      []StreamMutation
}

// RecoveredStream is one live stream reconstructed from checkpoint +
// log: its durable spec, the engine snapshot blob from the checkpoint
// (nil when the stream was created after it), and the tail batches to
// re-apply in order.
type RecoveredStream struct {
	Spec     StreamSpec
	Snapshot []byte
	Tail     []RecoveredBatch
}

// Recovery is everything Open reconstructed for the service layer.
type Recovery struct {
	NextRev         int64
	Datasets        []RecoveredDataset
	Streams         []RecoveredStream
	Skew            []SkewSample
	TelemSnapshot   []byte // latest telemetry rollup snapshot (nil = none)
	CheckpointSeq   uint64 // log position of the checkpoint used (0 = none)
	ReplayedRecords int64  // records replayed from the log tail
	LastSeq         uint64 // log position after recovery
}

// CheckpointState is the consistent snapshot the service hands to
// WriteCheckpoint. The cursors are the log positions of the last
// record of each class already reflected in the snapshot; replay after
// recovery skips records at or below them.
type CheckpointState struct {
	NextRev     int64
	RegistrySeq uint64
	StreamsSeq  uint64
	Datasets    []DatasetCheckpoint
	Streams     []StreamCheckpoint
}

// DatasetCheckpoint is one dataset's snapshot. Tuples back the rewrite
// of the dataset's colfile when (Rev, Gen) advanced past the file on
// disk; they are only read in that case.
type DatasetCheckpoint struct {
	Name     string
	Rev, Gen int64
	Tuples   []tuple.Tuple
}

// StreamCheckpoint is one stream's snapshot: its spec, an opaque engine
// snapshot (internal/stream's checkpoint format), and the log position
// of the last batch the snapshot includes.
type StreamCheckpoint struct {
	Spec       StreamSpec
	CoveredSeq uint64
	Blob       []byte
}

// Open opens (creating if needed) the store under dir and recovers its
// state from the newest valid checkpoint plus the log tail.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	opts = opts.withDefaults()
	for _, sub := range []string{"", "wal", "datasets", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, err
		}
	}
	log, err := openLog(filepath.Join(dir, "wal"), logOptions{
		fsync:      opts.Fsync,
		onAppend:   opts.OnAppend,
		onFsync:    opts.OnFsync,
		onSegments: opts.OnSegments,
	})
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		log:   log,
		files: make(map[string]dsFile),
		skew:  make(map[string][]SkewSample),
	}
	rec, err := s.recover()
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return s, rec, nil
}

// dsState is the in-flight dataset state during recovery.
type dsState struct {
	rev, gen int64
	tuples   []tuple.Tuple
	file     dsFile
}

// strState is the in-flight stream state during recovery.
type strState struct {
	spec       StreamSpec
	snapshot   []byte
	coveredSeq uint64
	tail       []RecoveredBatch
}

func (s *Store) recover() (*Recovery, error) {
	cks, err := listCheckpoints(filepath.Join(s.dir, "checkpoints"))
	if err != nil {
		return nil, err
	}

	// Restore from the newest checkpoint that validates in full
	// (manifest and every dataset file it references).
	var (
		m        ckptManifest
		blobs    [][]byte
		datasets map[string]*dsState
		streams  map[string]*strState
		strOrder []string
		haveCkpt bool
	)
	for _, path := range cks {
		cm, cb, err := readCheckpointFile(path)
		if err != nil {
			s.opts.Logf("dstore: skipping checkpoint %s: %v", filepath.Base(path), err)
			continue
		}
		ds, err := s.loadCkptDatasets(cm)
		if err != nil {
			s.opts.Logf("dstore: skipping checkpoint %s: %v", filepath.Base(path), err)
			continue
		}
		m, blobs, datasets, haveCkpt = cm, cb, ds, true
		break
	}
	if !haveCkpt {
		m = ckptManifest{NextRev: 0}
		datasets = make(map[string]*dsState)
	}
	streams = make(map[string]*strState)
	for i, cs := range m.Streams {
		streams[cs.Spec.Name] = &strState{spec: cs.Spec, snapshot: blobs[i], coveredSeq: cs.CoveredSeq}
		strOrder = append(strOrder, cs.Spec.Name)
	}
	for _, sample := range m.Skew {
		s.addSkewLocked(sample)
	}
	s.skewSeq = m.SkewSeq
	if len(m.Telem) > 0 {
		s.telemBlob = m.Telem
	}
	s.telemSeq = m.TelemSeq
	nextRev := m.NextRev

	// Replay the log tail. Per-class cursors decide what is already
	// reflected in the checkpoint; replay starts at the lowest cursor
	// and skips covered records per class.
	regSeq, strSeq, skewSeq, telemSeq := m.RegistrySeq, m.StreamsSeq, m.SkewSeq, m.TelemSeq
	from := minCursor(regSeq, strSeq, skewSeq, telemSeq, streams) + 1
	var replayed int64
	putFiles := make(map[string]bool) // files referenced by replayed puts
	replayErr := s.log.Replay(from, func(seq uint64, typ byte, payload []byte) error {
		switch typ {
		case recDatasetPut:
			if seq <= regSeq {
				return nil
			}
			r, err := decodeDatasetPut(payload)
			if err != nil {
				return fmt.Errorf("seq %d: %w", seq, err)
			}
			ts, err := loadTuplesFile(filepath.Join(s.dir, r.File))
			if err != nil {
				return fmt.Errorf("seq %d: dataset %q: %w", seq, r.Name, err)
			}
			datasets[r.Name] = &dsState{
				rev:    r.Rev,
				tuples: ts,
				file:   dsFile{path: r.File, rev: r.Rev, points: r.Points, seq: seq},
			}
			putFiles[r.File] = true
			if r.Rev >= nextRev {
				nextRev = r.Rev + 1
			}
		case recDatasetApply:
			if seq <= regSeq {
				return nil
			}
			r, err := decodeDatasetApply(payload)
			if err != nil {
				return fmt.Errorf("seq %d: %w", seq, err)
			}
			d, ok := datasets[r.Name]
			if !ok {
				return fmt.Errorf("seq %d: apply to unknown dataset %q", seq, r.Name)
			}
			d.tuples = MergeMutations(d.tuples, r.Upserts, r.Deletes)
			d.gen = r.Gen
		case recDatasetDelete:
			if seq <= regSeq {
				return nil
			}
			name, err := decodeName(payload)
			if err != nil {
				return fmt.Errorf("seq %d: %w", seq, err)
			}
			delete(datasets, name)
		case recStreamCreate:
			if seq <= strSeq {
				return nil
			}
			spec, err := decodeStreamCreate(payload)
			if err != nil {
				return fmt.Errorf("seq %d: %w", seq, err)
			}
			if _, ok := streams[spec.Name]; !ok {
				strOrder = append(strOrder, spec.Name)
			}
			streams[spec.Name] = &strState{spec: spec}
		case recStreamDelete:
			if seq <= strSeq {
				return nil
			}
			name, err := decodeName(payload)
			if err != nil {
				return fmt.Errorf("seq %d: %w", seq, err)
			}
			delete(streams, name)
		case recStreamBatch:
			r, err := decodeStreamBatch(payload)
			if err != nil {
				return fmt.Errorf("seq %d: %w", seq, err)
			}
			st, ok := streams[r.Name]
			if !ok || seq <= st.coveredSeq {
				return nil // deleted stream, or covered by its snapshot
			}
			st.tail = append(st.tail, RecoveredBatch{AppliedAt: time.Unix(0, r.AppliedAt), Muts: r.Muts})
		case recSkew:
			if seq <= skewSeq {
				return nil
			}
			sample, err := decodeSkew(payload)
			if err != nil {
				return fmt.Errorf("seq %d: %w", seq, err)
			}
			s.addSkewLocked(sample)
			s.skewSeq = seq
		case recTelem:
			if seq <= telemSeq {
				return nil
			}
			blob, err := decodeTelem(payload)
			if err != nil {
				return fmt.Errorf("seq %d: %w", seq, err)
			}
			s.telemBlob = blob
			s.telemSeq = seq
			// Telemetry snapshots are continuous latest-wins housekeeping,
			// not part of the mutation tail the replayed-records gauge
			// bounds; counting them would drown the signal.
			return nil
		default:
			s.opts.Logf("dstore: skipping record seq %d of unknown type %d", seq, typ)
			return nil
		}
		replayed++
		return nil
	})
	if replayErr != nil {
		return nil, fmt.Errorf("dstore: log replay: %w", replayErr)
	}

	rec := &Recovery{
		NextRev:         nextRev,
		CheckpointSeq:   m.LastSeq,
		ReplayedRecords: replayed,
		LastSeq:         s.log.LastSeq(),
		Skew:            s.skewHistoryLocked(),
		TelemSnapshot:   s.telemBlob,
	}
	for name, d := range datasets {
		rec.Datasets = append(rec.Datasets, RecoveredDataset{Name: name, Rev: d.rev, Gen: d.gen, Tuples: d.tuples})
		s.files[name] = d.file
	}
	for _, name := range strOrder {
		st, ok := streams[name]
		if !ok {
			continue
		}
		rec.Streams = append(rec.Streams, RecoveredStream{Spec: st.spec, Snapshot: st.snapshot, Tail: st.tail})
	}

	s.gcDatasetFiles(cks, putFiles)
	return rec, nil
}

// minCursor returns the lowest covered log position across all record
// classes. A zero cursor means no record of that class existed at
// snapshot time (later ones necessarily sit above every other cursor),
// so it imposes no bound.
func minCursor(regSeq, strSeq, skewSeq, telemSeq uint64, streams map[string]*strState) uint64 {
	lo := ^uint64(0)
	take := func(c uint64) {
		if c > 0 && c < lo {
			lo = c
		}
	}
	take(regSeq)
	take(strSeq)
	take(skewSeq)
	take(telemSeq)
	for _, st := range streams {
		take(st.coveredSeq)
	}
	if lo == ^uint64(0) {
		return 0
	}
	return lo
}

// loadCkptDatasets materializes every dataset a checkpoint references.
func (s *Store) loadCkptDatasets(m ckptManifest) (map[string]*dsState, error) {
	out := make(map[string]*dsState, len(m.Datasets))
	for _, d := range m.Datasets {
		ts, err := loadTuplesFile(filepath.Join(s.dir, d.File))
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", d.Name, err)
		}
		out[d.Name] = &dsState{
			rev:    d.Rev,
			gen:    d.Gen,
			tuples: ts,
			file:   dsFile{path: d.File, rev: d.Rev, gen: d.Gen, points: d.Points},
		}
	}
	return out, nil
}

func loadTuplesFile(path string) ([]tuple.Tuple, error) {
	r, err := OpenColFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Tuples()
}

// MergeMutations applies one mutation batch to a dataset's tuples: it
// drops every tuple whose id is deleted or re-upserted, keeping the
// survivors' order, and appends the upserts in request order. The live
// registry and log recovery both merge with it; ts is not modified.
func MergeMutations(ts []tuple.Tuple, ups []tuple.Tuple, dels []int64) []tuple.Tuple {
	drop := make(map[int64]struct{}, len(ups)+len(dels))
	for _, id := range dels {
		drop[id] = struct{}{}
	}
	for _, t := range ups {
		drop[t.ID] = struct{}{}
	}
	out := make([]tuple.Tuple, 0, len(ts)+len(ups))
	for _, t := range ts {
		if _, gone := drop[t.ID]; !gone {
			out = append(out, t)
		}
	}
	return append(out, ups...)
}

// gcDatasetFiles removes dataset files referenced by no surviving
// state: neither the recovered registry, nor any retained checkpoint
// manifest, nor any put record replayed from the tail.
func (s *Store) gcDatasetFiles(ckptPaths []string, putFiles map[string]bool) {
	referenced := make(map[string]bool)
	for _, f := range s.files {
		referenced[f.path] = true
	}
	for p := range putFiles {
		referenced[p] = true
	}
	kept := 0
	for _, path := range ckptPaths {
		if kept >= ckptKeep {
			break
		}
		m, _, err := readCheckpointFile(path)
		if err != nil {
			continue
		}
		kept++
		for _, d := range m.Datasets {
			referenced[d.File] = true
		}
	}
	// Files created by put records that predate the newest checkpoint
	// but survive in the log must stay for the fallback-recovery path.
	s.log.Replay(0, func(seq uint64, typ byte, payload []byte) error {
		if typ != recDatasetPut {
			return nil
		}
		if r, err := decodeDatasetPut(payload); err == nil {
			referenced[r.File] = true
		}
		return nil
	})
	dir := filepath.Join(s.dir, "datasets")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		rel := filepath.Join("datasets", e.Name())
		if !referenced[rel] {
			s.opts.Logf("dstore: removing orphan dataset file %s", e.Name())
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// safeFileName escapes name for use in a file name: ASCII letters,
// digits, '.', '_' and '-' pass through, everything else becomes %XX.
// The mapping is injective, so distinct dataset names never collide.
func safeFileName(name string) string {
	var b []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b = append(b, c)
		default:
			b = append(b, fmt.Sprintf("%%%02X", c)...)
		}
	}
	return string(b)
}

func (s *Store) datasetPath(name string, rev, gen int64) string {
	return filepath.Join("datasets", fmt.Sprintf("%s-r%d-g%d.col", safeFileName(name), rev, gen))
}

// LogDatasetPut durably records a wholesale dataset registration: the
// columnar file is written and synced first, then the log record that
// references it. Callers serialize per-registry mutations.
func (s *Store) LogDatasetPut(name string, rev int64, ts []tuple.Tuple) (uint64, error) {
	rel := s.datasetPath(name, rev, 0)
	abs := filepath.Join(s.dir, rel)
	if err := WriteTuplesFile(abs, ts); err != nil {
		return 0, err
	}
	payload := datasetPutRec{Name: name, Rev: rev, File: rel, Points: uint64(len(ts))}.encode(nil)
	seq, err := s.log.Append(recDatasetPut, payload)
	if err != nil {
		os.Remove(abs)
		return 0, err
	}
	s.mu.Lock()
	if old, ok := s.files[name]; ok {
		s.obsolete = append(s.obsolete, obsoleteFile{path: old.path, seq: seq})
	}
	s.files[name] = dsFile{path: rel, rev: rev, points: uint64(len(ts)), seq: seq}
	s.mu.Unlock()
	return seq, nil
}

// LogDatasetApply durably records an incremental mutation batch with
// its post-apply generation counter.
func (s *Store) LogDatasetApply(name string, gen int64, ups []tuple.Tuple, dels []int64) (uint64, error) {
	payload := datasetApplyRec{Name: name, Gen: gen, Upserts: ups, Deletes: dels}.encode(nil)
	return s.log.Append(recDatasetApply, payload)
}

// LogDatasetDelete durably records a dataset drop.
func (s *Store) LogDatasetDelete(name string) (uint64, error) {
	seq, err := s.log.Append(recDatasetDelete, encodeName(nil, name))
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	if old, ok := s.files[name]; ok {
		s.obsolete = append(s.obsolete, obsoleteFile{path: old.path, seq: seq})
		delete(s.files, name)
	}
	s.mu.Unlock()
	return seq, nil
}

// LogStreamCreate durably records a stream creation.
func (s *Store) LogStreamCreate(spec StreamSpec) (uint64, error) {
	payload, err := encodeStreamCreate(nil, spec)
	if err != nil {
		return 0, err
	}
	return s.log.Append(recStreamCreate, payload)
}

// LogStreamDelete durably records a stream drop.
func (s *Store) LogStreamDelete(name string) (uint64, error) {
	return s.log.Append(recStreamDelete, encodeName(nil, name))
}

// LogStreamBatch durably records one acked batch of stream mutations
// applied at the given wall-clock time.
func (s *Store) LogStreamBatch(name string, appliedAt time.Time, muts []StreamMutation) (uint64, error) {
	payload := streamBatchRec{Name: name, AppliedAt: appliedAt.UnixNano(), Muts: muts}.encode(nil)
	return s.log.Append(recStreamBatch, payload)
}

// AppendSkew durably records one skew observation for the (r, sname,
// eps) join key and folds it into the bounded in-memory history.
func (s *Store) AppendSkew(r, sname string, eps float64, report any) error {
	raw, err := json.Marshal(report)
	if err != nil {
		return err
	}
	sample := SkewSample{R: r, S: sname, Eps: eps, UnixMS: time.Now().UnixMilli(), Report: raw}
	payload, err := encodeSkew(nil, sample)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq, err := s.log.Append(recSkew, payload)
	if err != nil {
		return err
	}
	s.addSkewLocked(sample)
	s.skewSeq = seq
	return nil
}

// AppendTelemSnapshot durably records the latest telemetry rollup
// snapshot. The blob is opaque to dstore and latest-wins: recovery
// keeps only the highest-sequence snapshot, and checkpoints fold it
// into the manifest so the covering log prefix can truncate.
func (s *Store) AppendTelemSnapshot(blob []byte) error {
	payload := encodeTelem(nil, blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	seq, err := s.log.Append(recTelem, payload)
	if err != nil {
		return err
	}
	s.telemBlob = append([]byte(nil), blob...)
	s.telemSeq = seq
	return nil
}

func skewKey(r, s string, eps float64) string {
	return fmt.Sprintf("%s\xff%s\xff%g", r, s, eps)
}

func (s *Store) addSkewLocked(sample SkewSample) {
	key := skewKey(sample.R, sample.S, sample.Eps)
	ring, ok := s.skew[key]
	if !ok {
		s.skewKeys = append(s.skewKeys, key)
	}
	ring = append(ring, sample)
	if over := len(ring) - maxSkewSamples; over > 0 {
		ring = append(ring[:0], ring[over:]...)
	}
	s.skew[key] = ring
}

func (s *Store) skewHistoryLocked() []SkewSample {
	var out []SkewSample
	for _, key := range s.skewKeys {
		out = append(out, s.skew[key]...)
	}
	return out
}

// SkewHistory returns every retained skew sample, grouped by join key
// in first-observation order.
func (s *Store) SkewHistory() []SkewSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skewHistoryLocked()
}

// WriteCheckpoint persists the snapshot st, prunes old checkpoints,
// deletes dataset files the checkpoint obsoletes, and truncates the
// log through the lowest covered cursor. It returns the log position
// the checkpoint file is named after.
func (s *Store) WriteCheckpoint(st CheckpointState) (uint64, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	s.mu.Lock()
	skew := s.skewHistoryLocked()
	skewSeq := s.skewSeq
	telemBlob := s.telemBlob
	telemSeq := s.telemSeq
	files := make(map[string]dsFile, len(s.files))
	for k, v := range s.files {
		files[k] = v
	}
	s.mu.Unlock()

	// Rewrite the colfile of every dataset whose (rev, gen) moved past
	// what its on-disk file contains, so skipping registry records at
	// or below RegistrySeq on recovery stays correct.
	var deletable []string
	newFiles := make(map[string]dsFile)
	m := ckptManifest{
		NextRev:     st.NextRev,
		RegistrySeq: st.RegistrySeq,
		StreamsSeq:  st.StreamsSeq,
		SkewSeq:     skewSeq,
		Skew:        skew,
		TelemSeq:    telemSeq,
		Telem:       telemBlob,
	}
	replaced := make(map[string]string) // dataset -> captured path the rewrite replaced
	for _, d := range st.Datasets {
		f, ok := files[d.Name]
		if !ok || f.rev != d.Rev || f.gen != d.Gen {
			rel := s.datasetPath(d.Name, d.Rev, d.Gen)
			if err := WriteTuplesFile(filepath.Join(s.dir, rel), d.Tuples); err != nil {
				return 0, err
			}
			// The replaced file is retired only when the put that created
			// it is covered by this checkpoint; a file from a put racing
			// the snapshot (seq > RegistrySeq) is still needed by replay.
			if ok && f.seq <= st.RegistrySeq {
				deletable = append(deletable, f.path)
			}
			replaced[d.Name] = f.path
			f = dsFile{path: rel, rev: d.Rev, gen: d.Gen, points: uint64(len(d.Tuples))}
			newFiles[d.Name] = f
		}
		m.Datasets = append(m.Datasets, ckptDataset{Name: d.Name, Rev: d.Rev, Gen: d.Gen, File: f.path, Points: f.points})
	}
	blobs := make([][]byte, 0, len(st.Streams))
	lowestCover := ^uint64(0)
	takeCover := func(c uint64) {
		if c > 0 && c < lowestCover {
			lowestCover = c
		}
	}
	takeCover(st.RegistrySeq)
	takeCover(st.StreamsSeq)
	takeCover(skewSeq)
	takeCover(telemSeq)
	for _, cs := range st.Streams {
		m.Streams = append(m.Streams, ckptStream{Spec: cs.Spec, CoveredSeq: cs.CoveredSeq})
		blobs = append(blobs, cs.Blob)
		takeCover(cs.CoveredSeq)
	}
	m.LastSeq = s.log.LastSeq()
	if lowestCover == ^uint64(0) || lowestCover > m.LastSeq {
		lowestCover = m.LastSeq
	}

	ckDir := filepath.Join(s.dir, "checkpoints")
	if _, err := writeCheckpointFile(ckDir, m, blobs); err != nil {
		return 0, err
	}

	// The checkpoint is durable: retire superseded checkpoints, dataset
	// files covered by it, and fully-covered log segments.
	if cks, err := listCheckpoints(ckDir); err == nil {
		for _, old := range cks[min(len(cks), ckptKeep):] {
			os.Remove(old)
		}
	}
	s.mu.Lock()
	for name, f := range newFiles {
		// Install the checkpoint-written file only if no put raced the
		// snapshot; a racing put's newer file must stay authoritative.
		if cur, ok := s.files[name]; ok == (replaced[name] != "") && (!ok || cur.path == replaced[name]) {
			s.files[name] = f
		}
	}
	keep := s.obsolete[:0]
	for _, of := range s.obsolete {
		if of.seq <= st.RegistrySeq {
			deletable = append(deletable, of.path)
		} else {
			keep = append(keep, of)
		}
	}
	s.obsolete = keep
	s.mu.Unlock()
	for _, rel := range deletable {
		os.Remove(filepath.Join(s.dir, rel))
	}
	if err := s.log.TruncateThrough(lowestCover); err != nil {
		return 0, err
	}
	if s.opts.OnCheckpoint != nil {
		s.opts.OnCheckpoint(m.LastSeq)
	}
	return m.LastSeq, nil
}

// Close syncs and closes the log. The store must not be used after.
func (s *Store) Close() error { return s.log.Close() }
