// Metrics: the service's metric set, registered once on a telem
// registry that renders it as Prometheus text on /metrics and as JSON
// on /debug/vars.

package service

import (
	"spatialjoin"
	"spatialjoin/internal/telem"
)

// byteBuckets are size buckets from 256 B to 1 GiB in powers of four.
var byteBuckets = []float64{
	1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18,
	1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30,
}

// Metrics is the service's metric set.
type Metrics struct {
	*telem.Registry

	Requests *telem.CounterVec // by endpoint, code
	Rejected *telem.CounterVec // by reason (queue_full, draining, timeout, tenant_quota) and tenant

	InFlight   *telem.Gauge
	QueueDepth *telem.Gauge
	QueueWait  *telem.Histogram

	PlanCacheHits      *telem.Counter
	PlanCacheMisses    *telem.Counter
	PlanCacheEvictions *telem.Counter
	PlanCacheEntries   *telem.Gauge
	PlanCacheBytes     *telem.Gauge

	PlanBuild *telem.Histogram // prepared-plan construction latency
	Probe     *telem.Histogram // plan execution (probe) latency

	JoinLatency  *telem.Histogram // end-to-end join latency (build + probe)
	TaskDuration *telem.Histogram // partition task durations, from trace task spans
	ShuffleBytes *telem.Histogram // shuffled bytes per join

	JoinResults      *telem.CounterVec // result pairs served, by tenant
	ReplicatedServed *telem.Counter    // replicated objects served by executed plans
	Datasets         *telem.Gauge
	DatasetPoints    *telem.Gauge

	// Streaming-join engine counters, folded in per ingest batch from
	// each stream engine's counter diffs. All stay zero until a stream
	// is created.
	StreamIngested       *telem.Counter    // upserts + deletes accepted across streams
	StreamDeltaPairs     *telem.CounterVec // result-set deltas emitted, by op (add, remove)
	StreamCellRebuilds   *telem.Counter    // per-cell slab compactions
	StreamAgreementFlips *telem.Counter    // LPiB/DIFF agreement decisions flipped by drift
	StreamMigrations     *telem.Counter    // replica copies moved by rebalances
	StreamExpired        *telem.Counter    // points dropped by sliding-window TTL expiry
	Streams              *telem.Gauge      // live streams
	StreamPoints         *telem.Gauge      // live points across streams
	StreamReplicas       *telem.Gauge      // dedicated replica copies across streams
	StreamSubscribers    *telem.Gauge      // attached delta subscribers

	// Durable-store (dstore) accounting. All stay zero while the daemon
	// runs in-memory (no -data-dir).
	DstoreLogRecords        *telem.Counter // records appended to the ingest log
	DstoreLogBytes          *telem.Counter // payload bytes appended to the ingest log
	DstoreFsyncs            *telem.Counter // log fsyncs issued
	DstoreCheckpoints       *telem.Counter // checkpoints written
	DstoreLogSegments       *telem.Gauge   // live log segment files
	DstoreCheckpointSeq     *telem.Gauge   // log position of the newest checkpoint
	DstoreRecoveredDatasets *telem.Gauge   // datasets reconstructed at startup
	DstoreRecoveredStreams  *telem.Gauge   // streams reconstructed at startup
	DstoreReplayedRecords   *telem.Gauge   // log records replayed at startup

	// Measured wire counters of distributed (cluster-engine) runs,
	// accumulated from each probe's ClusterMetrics. All stay zero while
	// the daemon runs on the in-process engine.
	ClusterWorkers         *telem.Gauge   // workers that served the most recent run
	ClusterTaskBytesLocal  *telem.Counter // streamed task bytes read worker-locally
	ClusterTaskBytesRemote *telem.Counter // streamed task bytes crossing workers
	ClusterBroadcastBytes  *telem.Counter // plan frame bytes shipped
	ClusterResultBytes     *telem.Counter // result frame bytes received
	ClusterTasks           *telem.Counter // partition tasks completed
	ClusterRetries         *telem.Counter // task re-executions after failures
	ClusterSpecLaunched    *telem.Counter // speculative attempts launched
	ClusterSpecWins        *telem.Counter // speculative attempts that won
}

// NewMetrics builds the service metric set.
func NewMetrics() *Metrics {
	r := telem.NewRegistry()
	return &Metrics{
		Registry: r,

		Requests:   r.NewCounterVec("sjoind_requests_total", "HTTP requests by endpoint and status code.", "endpoint", "code"),
		Rejected:   r.NewCounterVec("sjoind_rejected_total", "Requests rejected by admission control, by reason and tenant.", "reason", "tenant"),
		InFlight:   r.NewGauge("sjoind_requests_in_flight", "Join requests currently executing."),
		QueueDepth: r.NewGauge("sjoind_queue_depth", "Join requests waiting for an execution slot."),
		QueueWait:  r.NewHistogram("sjoind_queue_wait_seconds", "Time spent waiting for an execution slot.", telem.LatencyBounds),

		PlanCacheHits:      r.NewCounter("sjoind_plan_cache_hits_total", "Join requests served from a cached prepared plan."),
		PlanCacheMisses:    r.NewCounter("sjoind_plan_cache_misses_total", "Join requests that had to build a prepared plan."),
		PlanCacheEvictions: r.NewCounter("sjoind_plan_cache_evictions_total", "Prepared plans evicted by the LRU policy."),
		PlanCacheEntries:   r.NewGauge("sjoind_plan_cache_entries", "Prepared plans currently cached."),
		PlanCacheBytes:     r.NewGauge("sjoind_plan_cache_bytes", "Approximate wire size of the cached partitioned tuples."),

		PlanBuild: r.NewHistogram("sjoind_plan_build_seconds", "Prepared-plan construction latency (sample, grid, agreements, map, shuffle).", telem.LatencyBounds),
		Probe:     r.NewHistogram("sjoind_probe_seconds", "Plan execution latency (partition-level joins).", telem.LatencyBounds),

		JoinLatency:  r.NewHistogram("sjoind_join_seconds", "End-to-end join latency (plan build on cache misses, plus probe).", telem.LatencyBounds),
		TaskDuration: r.NewHistogram("sjoind_task_seconds", "Partition task durations, extracted from each join's trace task spans.", telem.LatencyBounds),
		ShuffleBytes: r.NewHistogram("sjoind_shuffle_bytes", "Shuffled bytes per join (replication-driven network traffic).", byteBuckets),

		JoinResults:      r.NewCounterVec("sjoind_join_results_total", "Result pairs counted across all joins, by tenant.", "tenant"),
		ReplicatedServed: r.NewCounter("sjoind_replicated_objects_served_total", "Replicated objects served by executed plans."),
		Datasets:         r.NewGauge("sjoind_datasets", "Datasets currently registered."),
		DatasetPoints:    r.NewGauge("sjoind_dataset_points", "Total points across registered datasets."),

		StreamIngested:       r.NewCounter("sjoind_stream_ingested_total", "Stream mutations (upserts and deletes) accepted."),
		StreamDeltaPairs:     r.NewCounterVec("sjoind_stream_delta_pairs_total", "Result-set deltas emitted to stream subscribers, by op.", "op"),
		StreamCellRebuilds:   r.NewCounter("sjoind_stream_cell_rebuilds_total", "Per-cell sorted-slab compactions past the dirty threshold."),
		StreamAgreementFlips: r.NewCounter("sjoind_stream_agreement_flips_total", "Agreement decisions flipped by cardinality drift rebalances."),
		StreamMigrations:     r.NewCounter("sjoind_stream_rebalance_migrations_total", "Replica copies moved between cells by rebalances."),
		StreamExpired:        r.NewCounter("sjoind_stream_expired_total", "Points dropped by sliding-window TTL expiry."),
		Streams:              r.NewGauge("sjoind_streams", "Streams currently live."),
		StreamPoints:         r.NewGauge("sjoind_stream_points", "Live points across all streams."),
		StreamReplicas:       r.NewGauge("sjoind_stream_replicas", "Dedicated replica copies across all streams."),
		StreamSubscribers:    r.NewGauge("sjoind_stream_subscribers", "Delta subscribers currently attached."),

		DstoreLogRecords:        r.NewCounter("sjoind_dstore_log_records_total", "Records appended to the durable ingest log."),
		DstoreLogBytes:          r.NewCounter("sjoind_dstore_log_bytes_total", "Framed record bytes appended to the durable ingest log."),
		DstoreFsyncs:            r.NewCounter("sjoind_dstore_fsyncs_total", "fsync calls issued by the durable ingest log."),
		DstoreCheckpoints:       r.NewCounter("sjoind_dstore_checkpoints_total", "Checkpoints written by the durable store."),
		DstoreLogSegments:       r.NewGauge("sjoind_dstore_log_segments", "Live segment files in the durable ingest log."),
		DstoreCheckpointSeq:     r.NewGauge("sjoind_dstore_checkpoint_seq", "Log sequence number the newest checkpoint covers through."),
		DstoreRecoveredDatasets: r.NewGauge("sjoind_dstore_recovered_datasets", "Datasets reconstructed from the durable store at startup."),
		DstoreRecoveredStreams:  r.NewGauge("sjoind_dstore_recovered_streams", "Streams reconstructed from the durable store at startup."),
		DstoreReplayedRecords:   r.NewGauge("sjoind_dstore_replayed_records", "Log records replayed past the checkpoint at startup."),

		ClusterWorkers:         r.NewGauge("sjoind_cluster_workers", "Worker processes that served the most recent distributed join."),
		ClusterTaskBytesLocal:  r.NewCounter("sjoind_cluster_task_bytes_local_total", "Measured task bytes streamed to the worker co-located with the producing map split."),
		ClusterTaskBytesRemote: r.NewCounter("sjoind_cluster_task_bytes_remote_total", "Measured task bytes streamed across worker boundaries (real shuffle remote reads)."),
		ClusterBroadcastBytes:  r.NewCounter("sjoind_cluster_broadcast_bytes_total", "Measured plan frame bytes (one per worker per join: eps, flags, kernel, trace context) shipped to workers."),
		ClusterResultBytes:     r.NewCounter("sjoind_cluster_result_bytes_total", "Measured result frame bytes received from workers."),
		ClusterTasks:           r.NewCounter("sjoind_cluster_tasks_total", "Partition tasks completed by cluster workers."),
		ClusterRetries:         r.NewCounter("sjoind_cluster_task_retries_total", "Task re-executions after a worker died or failed."),
		ClusterSpecLaunched:    r.NewCounter("sjoind_cluster_speculative_launched_total", "Duplicate attempts launched for straggling tasks."),
		ClusterSpecWins:        r.NewCounter("sjoind_cluster_speculative_wins_total", "Speculative attempts that finished before the original."),
	}
}

// ObserveCluster folds one distributed run's measured wire counters into
// the registry; runs on the in-process engine (zero Workers) are ignored.
func (m *Metrics) ObserveCluster(cm spatialjoin.ClusterMetrics) {
	if cm.Workers == 0 {
		return
	}
	m.ClusterWorkers.Set(int64(cm.Workers))
	m.ClusterTaskBytesLocal.Add(cm.TaskBytesLocal)
	m.ClusterTaskBytesRemote.Add(cm.TaskBytesRemote)
	m.ClusterBroadcastBytes.Add(cm.BroadcastBytes)
	m.ClusterResultBytes.Add(cm.ResultBytes)
	m.ClusterTasks.Add(cm.Tasks)
	m.ClusterRetries.Add(cm.Retries)
	m.ClusterSpecLaunched.Add(cm.SpeculativeLaunched)
	m.ClusterSpecWins.Add(cm.SpeculativeWins)
}
