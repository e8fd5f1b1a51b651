package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
	"ndsearch/internal/vec"
)

// now is the harness's one clock read: measuring wall time is what a
// benchmark is for.
func now() time.Time {
	//ndvet:ignore determinism the benchmark harness measures wall time; inputs come from -seed alone
	return time.Now()
}

func ms(d time.Duration) float64     { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fixture is the set-up every workload shares: the seeded corpus and
// queries, the engine built over the corpus, and its flat snapshot.
type fixture struct {
	prof    dataset.Profile
	seed    int64
	corpus  []vec.Vector // base vectors, IDs 0..n-1
	spare   []vec.Vector // vectors the write script draws from
	queries []vec.Vector
	builder engine.Builder
	eng     *engine.Engine // resident, built in-process
	dir     string         // flat snapshot of eng
	work    string         // scratch directory owned by the fixture

	saveS time.Duration
}

// newFixture generates the inputs from seed, builds the 4-shard HNSW
// engine and saves it under a fresh directory in work.
func newFixture(p profile, seed int64, spare int, work string) (*fixture, error) {
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: p.n + spare, Queries: p.queries, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	builder, err := engine.BuilderByName("hnsw", prof.Metric, seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "fixture-")
	if err != nil {
		return nil, err
	}
	f := &fixture{
		prof: prof, seed: seed, corpus: d.Vectors[:p.n], spare: d.Vectors[p.n:],
		queries: d.Queries, builder: builder, work: dir, dir: filepath.Join(dir, "snapshot"),
	}
	f.eng, err = engine.New(f.corpus, engine.Config{
		Shards: shards, Workers: runtime.GOMAXPROCS(0), Builder: builder,
		Meta: engine.Meta{Algo: "hnsw", Dataset: prof.Name, Seed: seed, Elem: prof.Elem},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("build engine: %w", err)
	}
	start := now()
	if err := f.eng.Save(f.dir); err != nil {
		f.close()
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	f.saveS = now().Sub(start)
	return f, nil
}

func (f *fixture) close() {
	f.eng.Close()
	os.RemoveAll(f.work)
}

// truth is the exact top-k of each sample query over the live vectors,
// with IDs translated by ids (nil means position is the ID).
func truth(m vec.Metric, live []vec.Vector, ids []uint32, sample []vec.Vector) [][]ann.Neighbor {
	out := make([][]ann.Neighbor, len(sample))
	for i, q := range sample {
		out[i] = ann.BruteForce(m, live, q, k)
		if ids != nil {
			for j := range out[i] {
				out[i][j].ID = ids[out[i][j].ID]
			}
		}
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
