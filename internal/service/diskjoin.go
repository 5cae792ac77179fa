// The disk-join engine: joins served from grid-partitioned columnar
// files via dstore.JoinFiles instead of in-memory prepared plans —
// requested with algorithm "disk". Memory use is O(largest partition)
// rather than O(dataset), so it is the engine of choice for datasets
// that dwarf the plan cache. A disk plan is both datasets partitioned
// at the power-of-two ceiling of ε and mapped; it lives in the one plan
// cache like any plan, so a threshold re-sweep at any eps at or below
// the ceiling hits the same files.

package service

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/dstore"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/tuple"
)

// DiskJoin executes one join from partitioned columnar files through
// the shared pipeline.
func (s *Service) DiskJoin(ctx context.Context, req JoinRequest) (*JoinResponse, error) {
	return run(ctx, s, req.query("disk"), s.diskEngine(req))
}

// diskPlan is the disk engine's cached plan: both sides of a join
// written as grid-partitioned column files and mapped. Each build writes
// fresh files, so a rebuild never truncates a file another join still
// maps, and unlinks them as soon as they are mapped: their disk space
// lives exactly as long as the mapping, which free releases once the
// plan is neither cached nor swept by any join — and nothing is left
// behind by a process that never frees it.
type diskPlan struct {
	r, s  *dstore.ColReader
	bytes int64
}

func (p *diskPlan) FootprintBytes() int64 { return p.bytes }

func (p *diskPlan) free() {
	p.r.Close()
	p.s.Close()
}

// epsCeil rounds eps up to a power of two, so nearby thresholds share
// one plan (JoinFiles stays correct for any eps at or below the files'
// partitioning threshold).
func epsCeil(eps float64) float64 {
	return math.Pow(2, math.Ceil(math.Log2(eps)))
}

// buildDiskPlan partitions both datasets over their union bounds at
// epsC and resolution res. The files go under the data dir when the
// service is durable, the system temp dir when not.
func (s *Service) buildDiskPlan(rd, sd *dataset, epsC, res float64) (*diskPlan, error) {
	dir := os.TempDir()
	if s.cfg.DataDir != "" {
		dir = filepath.Join(s.cfg.DataDir, "diskjoin")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	p := &diskPlan{}
	bounds := rd.Bounds.Union(sd.Bounds)
	open := func(d *dataset) (*dstore.ColReader, error) {
		f, err := os.CreateTemp(dir, "sjoin-diskjoin-*.col")
		if err != nil {
			return nil, err
		}
		f.Close()
		defer os.Remove(f.Name())
		if err := dstore.WritePartitioned(f.Name(), d.Tuples, epsC, res, bounds); err != nil {
			return nil, fmt.Errorf("service: partitioning %q: %w", d.Name, err)
		}
		if fi, err := os.Stat(f.Name()); err == nil {
			p.bytes += fi.Size()
		}
		return dstore.OpenColFile(f.Name())
	}
	var err error
	if p.r, err = open(rd); err == nil {
		if p.s, err = open(sd); err != nil {
			p.r.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// diskEngine sweeps a cached disk plan with dstore.JoinFiles.
func (s *Service) diskEngine(req JoinRequest) engine[JoinResponse] {
	var rd, sd *dataset
	var plan *diskPlan
	return engine[JoinResponse]{
		validate: func() (err error) {
			if !(req.Eps > 0) || math.IsInf(req.Eps, 0) {
				return fmt.Errorf("service: disk join requires a positive, finite eps, got %v", req.Eps)
			}
			if rd, err = s.Registry.Get(req.R); err != nil {
				return err
			}
			sd, err = s.Registry.Get(req.S)
			return err
		},
		prepare: func(j *joinRun) (bool, func(), error) {
			sp := j.tr.Start(j.root.SpanID(), obs.SpanPartition)
			sp.SetInt("r_points", int64(len(rd.Tuples))).SetInt("s_points", int64(len(sd.Tuples)))
			defer sp.End()
			key := PlanKey{
				R: rd.Name, S: sd.Name, RRev: rd.Rev, SRev: sd.Rev, RGen: rd.Gen, SGen: sd.Gen,
				Eps: epsCeil(req.Eps), GridRes: req.GridRes, disk: true,
			}
			p, hit, release, err := s.cache.GetOrBuild(key, func() (cachedPlan, error) {
				return s.buildDiskPlan(rd, sd, key.Eps, key.GridRes)
			})
			plan, _ = p.(*diskPlan)
			return hit, release, err
		},
		execute: func(ctx context.Context, j *joinRun) error {
			bufs := colsweep.Get()
			defer colsweep.Put(bufs)
			out := bufs.Sink(false, false)
			if req.Collect {
				out = bufs.Batch(func(ps []tuple.Pair) {
					// One pair past the limit shows the pipeline the
					// truncation; the rest is never held.
					if len(j.found) <= j.limit {
						j.found = append(j.found, ps...)
					}
				}, false)
			}
			sp := j.tr.Start(j.root.SpanID(), obs.SpanExecute)
			err := dstore.JoinFilesInto(ctx, plan.r, plan.s, req.Eps, out)
			out.Flush()
			sp.SetInt("results", out.N)
			sp.End()
			j.label, j.results, j.checksum = "disk", out.N, out.Checksum
			return err
		},
		respond: func(j *joinRun) *JoinResponse { return joinResponse(j, rd, sd) },
	}
}
