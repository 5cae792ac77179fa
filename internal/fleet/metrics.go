package fleet

import "spatialjoin/internal/telem"

// Metrics is the router's metric set, rendered in the Prometheus text
// exposition format on the router's /metrics. Shard-level join metrics
// stay on the shards; the router reports what only it can see — routing
// decisions, retries, tenant admission, and handoff traffic.
type Metrics struct {
	*telem.Registry

	Requests       *telem.CounterVec // by endpoint, code
	Proxied        *telem.CounterVec // by shard
	Joins          *telem.CounterVec // by mode (local, streamed)
	Retries        *telem.CounterVec // by shard
	TenantRejected *telem.CounterVec // by tenant
	ShardDeaths    *telem.CounterVec // by shard
	Migrations     *telem.CounterVec // by reason (rebalance, repair, mirror)
	HandoffBytes   *telem.CounterVec // by reason
	WarmJoins      *telem.Counter
}

// NewMetrics builds the router metric set.
func NewMetrics() *Metrics {
	r := telem.NewRegistry()
	return &Metrics{
		Registry:       r,
		Requests:       r.NewCounterVec("sjoin_router_requests_total", "Requests handled by the router, by endpoint and status code.", "endpoint", "code"),
		Proxied:        r.NewCounterVec("sjoin_router_proxied_total", "Requests proxied to a shard, by shard.", "shard"),
		Joins:          r.NewCounterVec("sjoin_router_joins_total", "Joins routed, by mode (local, streamed).", "mode"),
		Retries:        r.NewCounterVec("sjoin_router_retries_total", "Shard requests retried after a transport failure, by shard.", "shard"),
		TenantRejected: r.NewCounterVec("sjoin_router_tenant_rejected_total", "Joins rejected by per-tenant admission, by tenant.", "tenant"),
		ShardDeaths:    r.NewCounterVec("sjoin_router_shard_deaths_total", "Shards declared dead by the heartbeat monitor, by shard.", "shard"),
		Migrations:     r.NewCounterVec("sjoin_router_migrations_total", "Dataset copies moved by ring changes or repair, by reason (rebalance, repair, mirror).", "reason"),
		HandoffBytes:   r.NewCounterVec("sjoin_router_handoff_bytes_total", "Colfile bytes shipped between shards by handoff, by reason.", "reason"),
		WarmJoins:      r.NewCounter("sjoin_router_warm_joins_total", "Plan-cache warming joins replayed after a migration."),
	}
}
