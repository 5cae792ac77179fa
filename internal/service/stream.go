// Service-level streaming joins: named stream.Engine instances managed
// next to the dataset registry, with metric accounting, optional TTL
// expiry tickers, and optional mirroring of stream mutations into
// registry datasets so batch joins observe the live points (and the
// plan cache, keyed by dataset generation, never serves stale plans).

package service

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"spatialjoin"
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/dstore"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

// StreamConfig creates one named stream. It is also the stream's
// durable record and the JSON body of POST /v1/stream. Eps and the
// data-space MBR (MinX, MinY, MaxX, MaxY) are required; GridRes 0 and
// RebalanceEvery 0 are the engine defaults (RebalanceEvery < 0 disables
// rebalancing); Policy is "lpib" (default) or "diff"; TTLMillis > 0
// enables sliding-window expiry.
//
// RDataset / SDataset, when set, link the stream's input sets to
// registry datasets: the engine is seeded from their current points and
// every ingested mutation is mirrored back via Registry.Apply, bumping
// the dataset generation. Batch joins against the linked names then
// always reflect the live stream state.
type StreamConfig = dstore.StreamSpec

// StreamInfo describes a live stream to clients.
type StreamInfo struct {
	Name           string  `json:"name"`
	Eps            float64 `json:"eps"`
	Policy         string  `json:"policy"`
	GridCells      int     `json:"grid_cells"`
	LiveR          int64   `json:"live_r"`
	LiveS          int64   `json:"live_s"`
	Replicas       int64   `json:"replicas"`
	Subscribers    int64   `json:"subscribers"`
	DeltasAdded    int64   `json:"deltas_added"`
	DeltasRemoved  int64   `json:"deltas_removed"`
	AgreementFlips int64   `json:"agreement_flips"`
	Migrations     int64   `json:"migrations"`
	RDataset       string  `json:"r_dataset,omitempty"`
	SDataset       string  `json:"s_dataset,omitempty"`
}

// streamState is one live stream and its serving-layer bookkeeping.
type streamState struct {
	name   string
	policy string
	eng    *stream.Engine
	rset   [2]string // linked dataset name per tuple.Set ("" = none)
	done   chan struct{}
	stop   sync.Once // closes done

	// Durable-mode state (zero on in-memory services). pmu serializes
	// log appends with engine applies so the log order is the apply
	// order; covered is the log position of the last batch reflected in
	// the engine; clock pins the engine's "now" to logged batch times.
	spec    dstore.StreamSpec
	pmu     sync.Mutex
	covered uint64
	clock   *replayClock
}

// engineConfig is the engine configuration spec describes, and the
// canonical name of its policy ("" defaults to lpib). A non-nil clock
// pins the engine's "now".
func engineConfig(spec StreamConfig, clock *replayClock) (stream.Config, string, error) {
	cfg := stream.Config{
		Eps:            spec.Eps,
		Bounds:         spatialjoin.Rect{MinX: spec.MinX, MinY: spec.MinY, MaxX: spec.MaxX, MaxY: spec.MaxY},
		GridRes:        spec.GridRes,
		TTL:            time.Duration(spec.TTLMillis) * time.Millisecond,
		RebalanceEvery: spec.RebalanceEvery,
	}
	if clock != nil {
		cfg.Now = clock.Now
	}
	switch spec.Policy {
	case "", "lpib":
		cfg.Policy, spec.Policy = agreements.LPiB, "lpib"
	case "diff":
		cfg.Policy = agreements.DIFF
	default:
		return cfg, "", fmt.Errorf("service: unknown stream policy %q (lpib, diff)", spec.Policy)
	}
	return cfg, spec.Policy, nil
}

func (st *streamState) info() StreamInfo {
	c := st.eng.Counters()
	return StreamInfo{
		Name: st.name, Eps: st.eng.Eps(), Policy: st.policy,
		GridCells: st.eng.Grid().NumCells(),
		LiveR:     c.LiveR, LiveS: c.LiveS,
		Replicas: c.Replicas, Subscribers: c.Subscribers,
		DeltasAdded: c.DeltasAdded, DeltasRemoved: c.DeltasRemoved,
		AgreementFlips: c.AgreementFlips, Migrations: c.Migrations,
		RDataset: st.rset[tuple.R], SDataset: st.rset[tuple.S],
	}
}

// CreateStream builds, registers, and (when datasets are linked) seeds a
// new stream. Stream names share a namespace separate from datasets.
func (s *Service) CreateStream(cfg StreamConfig) (StreamInfo, error) {
	if cfg.Name == "" {
		return StreamInfo{}, fmt.Errorf("service: stream name must not be empty")
	}
	var clock *replayClock
	if s.store != nil {
		clock = &replayClock{}
		clock.Set(time.Now())
	}
	engCfg, policy, err := engineConfig(cfg, clock)
	if err != nil {
		return StreamInfo{}, err
	}
	cfg.Policy = policy
	eng, err := stream.New(engCfg)
	if err != nil {
		return StreamInfo{}, err
	}
	st := &streamState{
		name: cfg.Name, policy: policy, eng: eng,
		rset:  [2]string{tuple.R: cfg.RDataset, tuple.S: cfg.SDataset},
		done:  make(chan struct{}),
		clock: clock,
		spec:  cfg,
	}
	// Reserve the name before seeding so a lost name race cannot leak
	// seed mutations into the metrics. The creation record is logged
	// under the same lock, so the log sees creates and deletes of one
	// name in their commit order.
	s.streamMu.Lock()
	if _, exists := s.streams[cfg.Name]; exists {
		s.streamMu.Unlock()
		return StreamInfo{}, fmt.Errorf("%w: %q", ErrStreamExists, cfg.Name)
	}
	if s.store != nil {
		seq, err := s.store.LogStreamCreate(st.spec)
		if err != nil {
			s.streamMu.Unlock()
			eng.Close()
			return StreamInfo{}, fmt.Errorf("%w: %v", ErrPersist, err)
		}
		s.streamsSeq = seq
	}
	s.streams[cfg.Name] = st
	s.streamMu.Unlock()

	// Seed linked sets from the datasets' current points. Durable
	// services log the seed as ordinary batches, so recovery replays
	// creation exactly without consulting the (possibly newer) datasets.
	for set := tuple.R; set <= tuple.S; set++ {
		name := st.rset[set]
		if name == "" {
			continue
		}
		d, err := s.Registry.Get(name)
		if err != nil {
			s.DeleteStream(cfg.Name)
			return StreamInfo{}, fmt.Errorf("service: stream %q links %w", cfg.Name, err)
		}
		batch := make([]stream.Mutation, len(d.Tuples))
		for i, t := range d.Tuples {
			batch[i] = stream.Mutation{Set: set, Tuple: t}
		}
		br, err := s.applyStreamBatch(st, batch)
		if err != nil {
			s.DeleteStream(cfg.Name)
			return StreamInfo{}, err
		}
		s.observeStream(br)
	}
	s.updateStreamGauges()

	s.startTTL(st)
	return st.info(), nil
}

// startTTL starts the stream's expiry loop when it has a TTL window.
// Close stops the loop and waits for it.
func (s *Service) startTTL(st *streamState) {
	if st.spec.TTLMillis > 0 {
		s.ttlLoops.Add(1)
		go s.ttlLoop(st, time.Duration(st.spec.TTLMillis)*time.Millisecond)
	}
}

// stopTTL ends the stream's expiry loop, if any; it may run more than
// once.
func (st *streamState) stopTTL() { st.stop.Do(func() { close(st.done) }) }

// ttlLoop drives sliding-window expiry for one stream so windows slide
// even while no mutations arrive.
func (s *Service) ttlLoop(st *streamState, ttl time.Duration) {
	defer s.ttlLoops.Done()
	period := ttl / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-st.done:
			return
		case now := <-tick.C:
			s.observeStream(st.eng.ExpireBefore(now.Add(-ttl)))
			s.updateStreamGauges()
		}
	}
}

// ErrUnknownStream is returned (wrapped) when no live stream has the
// requested name.
var ErrUnknownStream = errors.New("service: unknown stream")

// ErrStreamExists is returned (wrapped) when CreateStream is asked for a
// name a live stream already holds.
var ErrStreamExists = errors.New("service: stream already exists")

// GetStream returns one live stream, or an error wrapping
// ErrUnknownStream.
func (s *Service) GetStream(name string) (*streamState, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	st, ok := s.streams[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownStream, name)
	}
	return st, nil
}

// ListStreams describes all live streams, sorted by name.
func (s *Service) ListStreams() []StreamInfo {
	s.streamMu.Lock()
	states := make([]*streamState, 0, len(s.streams))
	for _, st := range s.streams {
		states = append(states, st)
	}
	s.streamMu.Unlock()
	out := make([]StreamInfo, len(states))
	for i, st := range states {
		out[i] = st.info()
	}
	slices.SortFunc(out, func(a, b StreamInfo) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// DeleteStream tears a stream down: its TTL ticker stops and every
// subscriber's queue is closed. Linked datasets keep their last state.
// On a durable service the drop is logged first; a log failure keeps
// the stream (memory and log never diverge) and reports false.
func (s *Service) DeleteStream(name string) bool {
	s.streamMu.Lock()
	st, ok := s.streams[name]
	if ok && s.store != nil {
		seq, err := s.store.LogStreamDelete(name)
		if err != nil {
			s.streamMu.Unlock()
			return false
		}
		s.streamsSeq = seq
	}
	delete(s.streams, name)
	s.streamMu.Unlock()
	if !ok {
		return false
	}
	s.updateStreamGauges()
	st.stopTTL()
	st.eng.Close()
	return true
}

// StreamIngest applies one mutation batch to a stream, folds the result
// into the metrics, and mirrors the mutations into linked datasets. A
// mirror failure (e.g. a mutation that would empty a dataset) does not
// roll back the stream; it is reported so the client can reconcile.
func (s *Service) StreamIngest(name string, batch []stream.Mutation) (stream.BatchResult, error) {
	st, err := s.GetStream(name)
	if err != nil {
		return stream.BatchResult{}, err
	}
	br, err := s.applyStreamBatch(st, batch)
	if err != nil {
		return stream.BatchResult{}, err
	}
	s.observeStream(br)
	s.updateStreamGauges()

	var mirrorErr error
	for set := tuple.R; set <= tuple.S; set++ {
		ds := st.rset[set]
		if ds == "" {
			continue
		}
		var ups []spatialjoin.Tuple
		var dels []int64
		for _, m := range batch {
			if m.Set != set {
				continue
			}
			if m.Delete {
				dels = append(dels, m.Tuple.ID)
			} else {
				ups = append(ups, m.Tuple)
			}
		}
		if len(ups)+len(dels) == 0 {
			continue
		}
		if _, err := s.Registry.Apply(ds, ups, dels); err != nil && mirrorErr == nil {
			mirrorErr = err
		}
	}
	return br, mirrorErr
}

// observeStream folds one engine operation's counter diff into the
// service metrics.
func (s *Service) observeStream(br stream.BatchResult) {
	if n := br.Upserts + br.Deletes; n > 0 {
		s.Metrics.StreamIngested.Add(n)
	}
	if br.DeltasAdded > 0 {
		s.Metrics.StreamDeltaPairs.Add(br.DeltasAdded, "add")
	}
	if br.DeltasRemoved > 0 {
		s.Metrics.StreamDeltaPairs.Add(br.DeltasRemoved, "remove")
	}
	s.Metrics.StreamCellRebuilds.Add(br.SlabRebuilds)
	s.Metrics.StreamAgreementFlips.Add(br.AgreementFlips)
	s.Metrics.StreamMigrations.Add(br.Migrations)
	s.Metrics.StreamExpired.Add(br.Expired)
}

// updateStreamGauges recomputes the cross-stream gauges.
func (s *Service) updateStreamGauges() {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	var points, replicas, subs int64
	for _, st := range s.streams {
		c := st.eng.Counters()
		points += c.LiveR + c.LiveS
		replicas += c.Replicas
		subs += c.Subscribers
	}
	s.Metrics.Streams.Set(int64(len(s.streams)))
	s.Metrics.StreamPoints.Set(points)
	s.Metrics.StreamReplicas.Set(replicas)
	s.Metrics.StreamSubscribers.Set(subs)
}
