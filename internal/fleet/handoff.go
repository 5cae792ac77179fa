package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// copyDataset ships one dataset to dst via the shards' handoff
// endpoints: the columnar file plus the planner's skew history for the
// dataset, so the new owner starts with both the data and the learned
// skew statistics. The source is any live holder. No-op when dst
// already holds a copy.
func (rt *Router) copyDataset(ctx context.Context, key string, dst *shard, reason string) error {
	rt.catMu.Lock()
	ent := rt.catalog[key]
	if ent == nil || ent.Holders[dst.id] {
		rt.catMu.Unlock()
		return nil
	}
	var src *shard
	for id := range ent.Holders {
		if sh := rt.shards[id]; sh != nil && sh.alive.Load() && sh != dst {
			src = sh
			break
		}
	}
	tenant, name, ver := ent.Tenant, ent.Name, ent.Ver
	rt.catMu.Unlock()
	if src == nil {
		return fmt.Errorf("fleet: no live holder of %q to copy from", name)
	}

	sname := shardDatasetName(tenant, name)
	blob, _, err := rt.shardGet(ctx, src, "/v1/admin/handoff/"+sname)
	if err != nil {
		return err
	}
	code, out, err := rt.shardPost(ctx, dst, "/v1/admin/handoff?name="+url.QueryEscape(sname), "application/octet-stream", blob)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		var ew errorWire
		json.Unmarshal(out, &ew)
		return fmt.Errorf("fleet: shard %s rejected handoff of %q: %s", dst.id, name, ew.Error)
	}
	rt.Metrics.Migrations.Inc(reason)
	rt.Metrics.HandoffBytes.Add(int64(len(blob)), reason)
	rt.shipSkew(ctx, src, dst, sname)

	rt.catMu.Lock()
	if cur := rt.catalog[key]; cur != nil && cur.Ver == ver {
		cur.Holders[dst.id] = true
	}
	rt.catMu.Unlock()
	rt.log.Info("fleet: dataset copied", "dataset", name, "from", src.id, "to", dst.id, "reason", reason, "bytes", len(blob))
	return nil
}

// shipSkew forwards the source shard's persisted skew observations for
// sname to dst, seeding the new owner's planner history. Best-effort:
// in-memory shards have no history and reject the endpoints with 400.
func (rt *Router) shipSkew(ctx context.Context, src, dst *shard, sname string) {
	hist, _, err := rt.shardGet(ctx, src, "/v1/planner/history")
	if err != nil {
		return
	}
	var samples []map[string]any
	if json.Unmarshal(hist, &samples) != nil {
		return
	}
	var keep []map[string]any
	for _, s := range samples {
		if s["r"] == sname || s["s"] == sname {
			keep = append(keep, s)
		}
	}
	if len(keep) == 0 {
		return
	}
	body, err := json.Marshal(keep)
	if err != nil {
		return
	}
	rt.shardPost(ctx, dst, "/v1/admin/skew", "application/json", body)
}

// repair restores the replica count after a shard death: every dataset
// whose live-owner set lost a member is re-replicated onto the next
// ring owner from a surviving holder.
func (rt *Router) repair() {
	rt.mu.RLock()
	ring := rt.ring
	rt.mu.RUnlock()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, key := range rt.datasetKeys() {
		for _, dst := range rt.liveOwnersIn(ring, key) {
			if err := rt.copyDataset(ctx, key, dst, "repair"); err != nil {
				rt.log.Warn("fleet: repair copy failed", "key", key, "shard", dst.id, "err", err)
			}
		}
	}
}

func (rt *Router) datasetKeys() []string {
	rt.catMu.Lock()
	defer rt.catMu.Unlock()
	keys := make([]string, 0, len(rt.catalog))
	for k := range rt.catalog {
		keys = append(keys, k)
	}
	return keys
}

// AddShard joins a shard into the fleet: health-check, pre-copy every
// dataset the new ring places on it, atomically swap the ring (waiting
// out in-flight requests resolved against the old one), drop now
// -surplus copies, and warm the mover's plan caches by replaying recent
// join shapes. In-flight requests never fail: until the swap they are
// served by the old owners, after it by the new ones, and both hold the
// data throughout the window.
func (rt *Router) AddShard(ctx context.Context, id, shardURL string) error {
	if id == "" || shardURL == "" {
		return fmt.Errorf("fleet: shard join needs id and url")
	}
	rt.catMu.Lock()
	if _, dup := rt.shards[id]; dup {
		rt.catMu.Unlock()
		return fmt.Errorf("fleet: shard %q already in the fleet", id)
	}
	rt.catMu.Unlock()

	sh := &shard{id: id, url: trimSlash(shardURL)}
	if _, _, err := rt.shardGet(ctx, sh, "/healthz"); err != nil {
		return fmt.Errorf("fleet: shard %q failed pre-join health check: %w", id, err)
	}
	sh.alive.Store(true)
	rt.catMu.Lock()
	rt.shards[id] = sh
	rt.catMu.Unlock()

	rt.mu.RLock()
	newRing := rt.ring.With(id)
	rt.mu.RUnlock()

	moved, err := rt.preCopy(ctx, newRing, "rebalance")
	if err != nil {
		rt.catMu.Lock()
		delete(rt.shards, id)
		rt.catMu.Unlock()
		return err
	}

	rt.mu.Lock()
	rt.ring = newRing
	rt.mu.Unlock()
	rt.log.Info("fleet: shard joined", "shard", id, "datasets_moved", len(moved))

	rt.pruneSurplus(newRing)
	rt.warm(ctx, moved)
	return nil
}

// RemoveShard gracefully removes a shard: every dataset it owns is
// copied to its new owners first (the leaving shard itself is a valid
// copy source — this is the dstore handoff path), then the ring swap
// retargets traffic, then the shard is forgotten.
func (rt *Router) RemoveShard(ctx context.Context, id string) error {
	rt.catMu.Lock()
	sh := rt.shards[id]
	rt.catMu.Unlock()
	if sh == nil {
		return fmt.Errorf("fleet: unknown shard %q", id)
	}
	rt.mu.RLock()
	newRing := rt.ring.Without(id)
	rt.mu.RUnlock()
	if newRing.Len() == 0 {
		return fmt.Errorf("fleet: cannot remove the last shard")
	}

	moved, err := rt.preCopy(ctx, newRing, "rebalance")
	if err != nil {
		return err
	}

	rt.mu.Lock()
	rt.ring = newRing
	rt.mu.Unlock()

	rt.catMu.Lock()
	delete(rt.shards, id)
	for _, ent := range rt.catalog {
		delete(ent.Holders, id)
	}
	for mk := range rt.mirrors {
		if sid, _, ok := strings.Cut(mk, "\xff"); ok && sid == id {
			delete(rt.mirrors, mk)
		}
	}
	rt.catMu.Unlock()
	rt.log.Info("fleet: shard left", "shard", id, "datasets_moved", len(moved))
	rt.warm(ctx, moved)
	return nil
}

// preCopy replicates every dataset onto the owners the candidate ring
// assigns it, before that ring is installed. Returns the keys that
// gained a holder.
func (rt *Router) preCopy(ctx context.Context, ring *Ring, reason string) ([]string, error) {
	var moved []string
	for _, key := range rt.datasetKeys() {
		for _, dst := range rt.liveOwnersIn(ring, key) {
			rt.catMu.Lock()
			ent := rt.catalog[key]
			have := ent != nil && ent.Holders[dst.id]
			rt.catMu.Unlock()
			if have {
				continue
			}
			if err := rt.copyDataset(ctx, key, dst, reason); err != nil {
				return nil, fmt.Errorf("fleet: migrating %s to %s: %w", keyName(key), dst.id, err)
			}
			moved = append(moved, key)
		}
	}
	return moved, nil
}

// pruneSurplus drops dataset copies from shards the installed ring no
// longer places them on, keeping fleet memory proportional to the
// replica factor.
func (rt *Router) pruneSurplus(ring *Ring) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, key := range rt.datasetKeys() {
		want := map[string]bool{}
		for _, sh := range rt.liveOwnersIn(ring, key) {
			want[sh.id] = true
		}
		rt.catMu.Lock()
		ent := rt.catalog[key]
		if ent == nil {
			rt.catMu.Unlock()
			continue
		}
		var drop []*shard
		for id := range ent.Holders {
			if !want[id] {
				if sh := rt.shards[id]; sh != nil && sh.alive.Load() {
					drop = append(drop, sh)
				}
			}
		}
		sname := shardDatasetName(ent.Tenant, ent.Name)
		for _, sh := range drop {
			delete(ent.Holders, sh.id)
		}
		rt.catMu.Unlock()
		for _, sh := range drop {
			req, _ := http.NewRequestWithContext(ctx, http.MethodDelete, sh.url+"/v1/datasets/"+sname, nil)
			if resp, err := rt.cfg.Client.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}
}

// warm replays the recent join shapes touching the moved datasets
// against their (possibly new) primary owners, count-only, so the first
// real query after a migration hits a built plan instead of paying the
// full construction pipeline.
func (rt *Router) warm(ctx context.Context, movedKeys []string) {
	seen := map[string]bool{}
	for _, key := range movedKeys {
		if seen[key] {
			continue
		}
		seen[key] = true
		rt.catMu.Lock()
		hist := append([]warmJoin(nil), rt.recent[key]...)
		rt.catMu.Unlock()
		for _, wj := range hist {
			rt.mu.RLock()
			tR := rt.serveTarget(Key(wj.tenant, wj.wire.R))
			tS := rt.serveTarget(Key(wj.tenant, wj.wire.S))
			rt.mu.RUnlock()
			if tR == nil || tR != tS {
				continue // cross-shard shapes re-mirror lazily on first use
			}
			sw := wj.wire
			sw.R = shardDatasetName(wj.tenant, wj.wire.R)
			sw.S = shardDatasetName(wj.tenant, wj.wire.S)
			body, err := json.Marshal(sw)
			if err != nil {
				continue
			}
			if code, _, err := rt.shardPost(ctx, tR, "/v1/join/count", "application/json", body); err == nil && code == http.StatusOK {
				rt.Metrics.WarmJoins.Inc()
			}
		}
	}
}

func (rt *Router) handleAddShard(w http.ResponseWriter, r *http.Request) (int, error) {
	var body struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
		return http.StatusBadRequest, fmt.Errorf("fleet: bad shard join body: %w", err)
	}
	if err := rt.AddShard(r.Context(), body.ID, body.URL); err != nil {
		return http.StatusBadGateway, err
	}
	return writeJSON(w, http.StatusOK, rt.Info()), nil
}

func (rt *Router) handleRemoveShard(w http.ResponseWriter, r *http.Request) (int, error) {
	if err := rt.RemoveShard(r.Context(), r.PathValue("id")); err != nil {
		return http.StatusBadGateway, err
	}
	return writeJSON(w, http.StatusOK, rt.Info()), nil
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// keyName renders a placement key back to tenant/name for error text.
func keyName(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			if i == 0 {
				return key[1:]
			}
			return key[:i] + "/" + key[i+1:]
		}
	}
	return key
}
