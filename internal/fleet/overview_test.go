package fleet_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"spatialjoin/internal/fleet"
	"spatialjoin/internal/service"
	"spatialjoin/internal/telem"
)

func getOverview(tf *testFleet, path string) (int, fleet.OverviewResponse) {
	tf.t.Helper()
	res, err := http.Get(tf.routerS.URL + path)
	if err != nil {
		tf.t.Fatal(err)
	}
	defer res.Body.Close()
	var ov fleet.OverviewResponse
	json.NewDecoder(res.Body).Decode(&ov)
	return res.StatusCode, ov
}

func TestFleetOverviewAggregation(t *testing.T) {
	tf := newTestFleet(t, 3, fleet.Config{})
	names := setupDatasets(tf, 4, 600)
	for i := 0; i < 3; i++ {
		tf.joinVia("", fmt.Sprintf(joinShape, names[i], names[i+1]))
	}

	code, ov := getOverview(tf, "/v1/fleet/overview")
	if code != http.StatusOK {
		t.Fatalf("overview status %d", code)
	}
	if len(ov.Shards) != 3 {
		t.Fatalf("overview shards = %d, want 3", len(ov.Shards))
	}
	var shardObs, aggObs int64
	countLatency := func(dumps []telem.SeriesDump) int64 {
		var n int64
		for _, d := range dumps {
			if d.Name == telem.SeriesJoinLatency && d.Res == "1s" {
				for _, b := range d.Buckets {
					n += b.Count
				}
			}
		}
		return n
	}
	for _, row := range ov.Shards {
		if row.Err != "" {
			t.Fatalf("shard %s telemetry error: %s", row.ID, row.Err)
		}
		shardObs += countLatency(row.Series)
	}
	aggObs = countLatency(ov.Series)
	// Each routed join runs exactly one shard-side join, and the
	// aggregate must account for exactly the per-shard sum.
	if shardObs != 3 || aggObs != shardObs {
		t.Fatalf("latency observations: shards %d (want 3), aggregate %d", shardObs, aggObs)
	}

	found := false
	for _, st := range ov.SLOs {
		if st.Tenant == "" && st.Total >= 3 && st.P99Millis > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("aggregated SLOs missing interpolated tenant row: %+v", ov.SLOs)
	}

	if code, _ := getOverview(tf, "/v1/fleet/overview?window=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad window status %d, want 400", code)
	}
	if code, win := getOverview(tf, "/v1/fleet/overview?window=5m"); code != http.StatusOK || len(win.Series) == 0 {
		t.Fatalf("windowed overview: status %d, series %d", code, len(win.Series))
	}
}

func TestFleetOverviewAnomalyAndDeadShard(t *testing.T) {
	// Threshold 0.5 means every join's straggler ratio (>= 1 by
	// construction) raises an event.
	tf, shardSrv := newTraceFleet(t, service.Config{PlanCacheSize: 16, StragglerThreshold: 0.5}, fleet.Config{})
	tf.generate("", "r", 400, 1)
	tf.generate("", "s", 400, 2)
	routedJoinID(tf)

	code, ov := getOverview(tf, "/v1/fleet/overview")
	if code != http.StatusOK {
		t.Fatalf("overview status %d", code)
	}
	var spikes int
	for _, ev := range ov.Events {
		if ev.Kind == telem.EventStragglerSpike && ev.Shard == "s1" {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatalf("no straggler events in overview: %+v", ov.Events)
	}

	// A dead shard degrades to an error row without failing the view.
	shardSrv.Close()
	code, ov = getOverview(tf, "/v1/fleet/overview")
	if code != http.StatusOK {
		t.Fatalf("overview with dead shard: status %d", code)
	}
	if len(ov.Shards) != 1 || ov.Shards[0].Err == "" {
		t.Fatalf("dead shard row = %+v, want error set", ov.Shards)
	}
	if len(ov.Series) != 0 || len(ov.SLOs) != 0 {
		t.Fatalf("dead-shard aggregates should be empty: %d series, %d slos", len(ov.Series), len(ov.SLOs))
	}
}
