// Durable serving: when Config.DataDir is set, every dataset and
// stream mutation is appended to dstore's record log before it commits
// in memory, stream engines snapshot into periodic checkpoints, and
// Open reconstructs the full service state — registry (revisions and
// generations included), live streams, and per-(R, S, eps) skew
// history — from the newest checkpoint plus a bounded log tail.

package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"spatialjoin/internal/dstore"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

// ErrPersist wraps durable-log append failures: the mutation was NOT
// applied (memory and log never diverge) and the client should retry.
var ErrPersist = errors.New("service: durable log append failed")

// ErrNotDurable is returned by durability-only operations on a service
// running without a data directory.
var ErrNotDurable = errors.New("service: not durable (started without a data directory)")

// replayClock pins a stream engine's notion of "now" to the wall-clock
// instant its current batch was logged at — both live and during
// recovery replay — so entry timestamps and the TTL expiry Apply runs
// internally are deterministic functions of the log.
type replayClock struct {
	t atomic.Int64 // UnixNano of the current batch
}

func (c *replayClock) Set(t time.Time) { c.t.Store(t.UnixNano()) }
func (c *replayClock) Now() time.Time  { return time.Unix(0, c.t.Load()) }

// Open builds a service like New and, when cfg.DataDir is set, opens
// the durable store under it, recovers all persisted state, installs
// the persist hooks, and starts the periodic checkpoint loop.
func Open(cfg Config) (*Service, error) {
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	// A disk plan's files are unlinked once mapped; only a crash during a
	// build leaves one behind, and no plan owns it after a restart.
	os.RemoveAll(filepath.Join(cfg.DataDir, "diskjoin"))
	m := s.Metrics
	store, rec, err := dstore.Open(cfg.DataDir, dstore.Options{
		Fsync: cfg.Fsync,
		OnAppend: func(recordBytes int64) {
			m.DstoreLogRecords.Inc()
			m.DstoreLogBytes.Add(recordBytes)
		},
		OnFsync:    func() { m.DstoreFsyncs.Inc() },
		OnSegments: func(n int64) { m.DstoreLogSegments.Set(n) },
		OnCheckpoint: func(seq uint64) {
			m.DstoreCheckpoints.Inc()
			m.DstoreCheckpointSeq.Set(int64(seq))
		},
		Logf: cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	s.store = store

	// Registry first: streams may link datasets and re-seed from them.
	if rec.NextRev > 0 {
		s.Registry.nextRev = rec.NextRev - 1
	}
	for _, d := range rec.Datasets {
		s.Registry.restore(d.Name, d.Rev, d.Gen, d.Tuples)
	}
	// Every surviving record at or below LastSeq is now reflected in
	// memory, so all cursors start there.
	s.Registry.seq = rec.LastSeq
	s.streamsSeq = rec.LastSeq
	s.Registry.persist = &registryPersist{
		put:    store.LogDatasetPut,
		apply:  store.LogDatasetApply,
		delete: store.LogDatasetDelete,
	}
	for _, rs := range rec.Streams {
		if err := s.adoptStream(rs, rec.LastSeq); err != nil {
			store.Close()
			return nil, fmt.Errorf("service: recovering stream %q: %w", rs.Spec.Name, err)
		}
	}
	if len(rec.TelemSnapshot) > 0 {
		if err := s.Telem.RestoreSnapshot(rec.TelemSnapshot); err != nil && cfg.Logf != nil {
			cfg.Logf("service: telemetry snapshot restore: %v", err)
		}
	}
	m.DstoreRecoveredDatasets.Set(int64(len(rec.Datasets)))
	m.DstoreRecoveredStreams.Set(int64(len(rec.Streams)))
	m.DstoreReplayedRecords.Set(rec.ReplayedRecords)
	m.DstoreCheckpointSeq.Set(int64(rec.CheckpointSeq))
	if cfg.Logf != nil {
		cfg.Logf("service: recovered %d datasets and %d streams from %s (checkpoint seq %d, %d records replayed)",
			len(rec.Datasets), len(rec.Streams), cfg.DataDir, rec.CheckpointSeq, rec.ReplayedRecords)
	}

	if cfg.CheckpointEvery > 0 {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop(cfg.CheckpointEvery)
	}
	s.tflushStop = make(chan struct{})
	s.tflushDone = make(chan struct{})
	go s.telemFlushLoop(s.cfg.TelemFlushEvery)
	return s, nil
}

// telemFlushLoop periodically appends the telemetry snapshot to the
// record log (latest-wins) so rollup history survives kill -9.
func (s *Service) telemFlushLoop(every time.Duration) {
	defer close(s.tflushDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.tflushStop:
			return
		case <-tick.C:
			s.flushTelem()
		}
	}
}

// flushTelem appends one telemetry snapshot, skipping the append when
// nothing changed since the last flush (an idle daemon must not grow
// the log). Best-effort: a failed append only logs.
func (s *Service) flushTelem() {
	blob, err := s.Telem.MarshalSnapshot()
	if err == nil {
		if bytes.Equal(blob, s.lastTelemFlush) {
			return
		}
		err = s.store.AppendTelemSnapshot(blob)
		if err == nil {
			s.lastTelemFlush = blob
		}
	}
	if err != nil && s.cfg.Logf != nil {
		s.cfg.Logf("service: telemetry flush: %v", err)
	}
}

// adoptStream rebuilds one recovered stream: engine from the
// checkpoint snapshot (or fresh when the stream postdates it), tail
// batches re-applied under their logged wall-clock times, TTL loop
// restarted. lastSeq is the log position recovery ended at; every
// batch record at or below it is already in the engine state.
func (s *Service) adoptStream(rs dstore.RecoveredStream, lastSeq uint64) error {
	spec := rs.Spec
	clock := &replayClock{}
	engCfg, policy, err := engineConfig(spec, clock)
	if err != nil {
		return err
	}
	var eng *stream.Engine
	if rs.Snapshot != nil {
		eng, err = stream.Restore(engCfg, rs.Snapshot)
	} else {
		eng, err = stream.New(engCfg)
	}
	if err != nil {
		return err
	}
	for _, b := range rs.Tail {
		clock.Set(b.AppliedAt)
		eng.Apply(fromStoreMutations(b.Muts))
	}
	if ttl := time.Duration(spec.TTLMillis) * time.Millisecond; ttl > 0 {
		// Converge immediately: entries whose window closed while the
		// process was down expire now rather than at the next tick.
		eng.ExpireBefore(time.Now().Add(-ttl))
	}
	st := &streamState{
		name: spec.Name, policy: policy, eng: eng,
		rset:  [2]string{tuple.R: spec.RDataset, tuple.S: spec.SDataset},
		done:  make(chan struct{}),
		spec:  spec,
		clock: clock,
	}
	st.covered = lastSeq
	s.streamMu.Lock()
	s.streams[spec.Name] = st
	s.streamMu.Unlock()
	s.updateStreamGauges()
	s.startTTL(st)
	return nil
}

// applyStreamBatch applies one mutation batch to a stream. On a
// durable service the batch is logged first and applied under the
// stream's persist lock, so the log order equals the apply order and
// the engine clock sees exactly the logged wall-clock instant; a log
// failure rejects the batch without applying it.
func (s *Service) applyStreamBatch(st *streamState, batch []stream.Mutation) (stream.BatchResult, error) {
	if s.store == nil {
		return st.eng.Apply(batch), nil
	}
	st.pmu.Lock()
	defer st.pmu.Unlock()
	appliedAt := time.Now()
	seq, err := s.store.LogStreamBatch(st.name, appliedAt, toStoreMutations(batch))
	if err != nil {
		return stream.BatchResult{}, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	st.clock.Set(appliedAt)
	br := st.eng.Apply(batch)
	st.covered = seq
	return br, nil
}

func toStoreMutations(batch []stream.Mutation) []dstore.StreamMutation {
	out := make([]dstore.StreamMutation, len(batch))
	for i, m := range batch {
		out[i] = dstore.StreamMutation{Set: uint8(m.Set), Delete: m.Delete, Tuple: m.Tuple}
	}
	return out
}

func fromStoreMutations(muts []dstore.StreamMutation) []stream.Mutation {
	out := make([]stream.Mutation, len(muts))
	for i, m := range muts {
		out[i] = stream.Mutation{Set: tuple.Set(m.Set), Delete: m.Delete, Tuple: m.Tuple}
	}
	return out
}

// Checkpoint persists a consistent snapshot of the registry, every
// stream engine, and the skew history, then prunes obsolete log
// segments and dataset files. Recovery afterwards replays only records
// logged past the snapshot's per-class cursors. It returns the log
// position the checkpoint covers through.
func (s *Service) Checkpoint() (uint64, error) {
	if s.store == nil {
		return 0, ErrNotDurable
	}
	nextRev, regSeq, ds := s.Registry.snapshot()
	st := dstore.CheckpointState{NextRev: nextRev, RegistrySeq: regSeq}
	for _, d := range ds {
		st.Datasets = append(st.Datasets, dstore.DatasetCheckpoint{
			Name: d.Name, Rev: d.Rev, Gen: d.Gen, Tuples: d.Tuples,
		})
	}
	s.streamMu.Lock()
	st.StreamsSeq = s.streamsSeq
	states := make([]*streamState, 0, len(s.streams))
	for _, stt := range s.streams {
		states = append(states, stt)
	}
	s.streamMu.Unlock()
	for _, stt := range states {
		// The persist lock makes the blob and its covered position one
		// atomic pair even while ingest batches race the checkpoint.
		stt.pmu.Lock()
		var buf bytes.Buffer
		err := stt.eng.WriteCheckpoint(&buf)
		covered := stt.covered
		stt.pmu.Unlock()
		if err != nil {
			return 0, err
		}
		st.Streams = append(st.Streams, dstore.StreamCheckpoint{
			Spec: stt.spec, CoveredSeq: covered, Blob: buf.Bytes(),
		})
	}
	return s.store.WriteCheckpoint(st)
}

// checkpointLoop drives periodic checkpoints until Close.
func (s *Service) checkpointLoop(every time.Duration) {
	defer close(s.ckptDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-tick.C:
			if _, err := s.Checkpoint(); err != nil && s.cfg.Logf != nil {
				s.cfg.Logf("service: periodic checkpoint: %v", err)
			}
		}
	}
}

// SkewHistory returns the persisted per-(R, S, eps) skew observations
// — the planner-history seed — grouped by join key in
// first-observation order. Nil store yields ErrNotDurable.
func (s *Service) SkewHistory() ([]dstore.SkewSample, error) {
	if s.store == nil {
		return nil, ErrNotDurable
	}
	return s.store.SkewHistory(), nil
}

// Close stops the telemetry sampler and every stream's expiry loop,
// waiting for them, and frees the cached plans (a disk plan is unmapped
// once the last join on it returns). A durable service then stops its
// flush and checkpoint loops, flushes a final telemetry snapshot,
// writes a final checkpoint so the next start replays nothing, and
// closes the store.
func (s *Service) Close() error {
	s.Telem.Stop()
	s.streamMu.Lock()
	for _, st := range s.streams {
		st.stopTTL()
	}
	s.streamMu.Unlock()
	s.ttlLoops.Wait()
	s.cache.invalidate(func(PlanKey) bool { return true })
	if s.store == nil {
		return nil
	}
	if s.tflushStop != nil {
		close(s.tflushStop)
		<-s.tflushDone
		s.tflushStop = nil
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
		s.ckptStop = nil
	}
	s.flushTelem()
	if _, err := s.Checkpoint(); err != nil && s.cfg.Logf != nil {
		s.cfg.Logf("service: final checkpoint: %v", err)
	}
	return s.store.Close()
}
